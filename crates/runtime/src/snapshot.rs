//! Versioned, checksummed runtime snapshots.
//!
//! A [`RuntimeSnapshot`] captures a [`crate::PipelinedSystem`] at an event
//! boundary — the learned module state plus, mid-run, the whole execution
//! state (clock, event queue, HIT board, per-cycle work). Resuming from it
//! replays the remaining events exactly as the original run would have, so
//! the final [`crate::RuntimeReport`] is byte-identical.
//!
//! The wire format frames the payload against corruption and format drift:
//!
//! ```text
//! magic  b"CLSNAP\x00\x01"          8 bytes
//! format version                     u32 LE
//! payload length                     u64 LE
//! checksum of the payload            u64 LE   (frame_checksum, since v6)
//! payload                            length bytes
//! ```
//!
//! The checksum reads the payload a 64-bit word at a time (see
//! `frame_checksum`): any corruption confined to one aligned 8-byte word is
//! always caught, and truncation is caught by the length field.
//!
//! The payload itself is the vendored binary codec's output:
//! `RuntimeConfig`, then the core system state
//! ([`crowdlearn::CrowdLearnSystem::encode_state`]), then the optional
//! execution state, then the optional streaming metrics tap
//! ([`crate::MetricsTap`] — version 2; it rides in the snapshot so a
//! resumed run replays the identical metric stream). Floats travel as
//! IEEE-754 bits, so round trips are bit-exact by construction.

use crowdlearn::StateError;
use serde::binary::DecodeError;

/// Leading bytes of every snapshot.
const MAGIC: [u8; 8] = *b"CLSNAP\x00\x01";

/// Current snapshot format version. Bump on any payload layout change.
///
/// Version history: 1 — initial format; 2 — `CycleOutcome` gained exact
/// per-query delays and the payload gained the optional metrics tap;
/// 3 — the `Platform` codec gained the submitter id and `PlatformStats`
/// gained the repost grid and per-submitter usage (fleet attribution);
/// 4 — `RuntimeConfig` encodes a tagged `WindowPolicy` where the static
/// window used to sit, and the execution state carries the window
/// controller (effective window, cooldown counter, last decision, window
/// trajectory);
/// 5 — fault injection: `RuntimeConfig` carries the `FaultPlan` and
/// `BreakerConfig`, the execution state carries the `FaultInjector`,
/// breaker state/backoff, parked cycles, and rejection/degradation
/// counters, each in-flight HIT carries its `lost` flag, and the metrics
/// tap carries the abandonment/fault/breaker/degradation counters;
/// 6 — the frame checksum changed from byte-wise FNV-1a-64 to the
/// word-at-a-time `frame_checksum`, about 6× cheaper. The payload bytes are
/// exactly those of version 5; a v5 frame is refused with
/// [`SnapshotError::VersionMismatch`] because its checksum would no longer
/// verify (no frame is persisted across builds, so no v5 reader is kept);
/// 7 — the CQC model's `RegressionTree`s are pre-order records with
/// implicit children: a leaf is tag 0 and its weight (9 bytes), a split
/// tag 1, a `u32` feature, its threshold and its gain (21 bytes, down from
/// 41 with an 8-byte feature and two 8-byte child indices). A mid-run frame
/// shrinks by about 40%. A v6 frame is refused with
/// [`SnapshotError::VersionMismatch`]; no v6 reader is kept either.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 7;

/// Why a snapshot could not be produced or restored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The system holds a component with no serialized form (a non-simulated
    /// classifier or a non-checkpointable bandit policy).
    UnsupportedSystem(StateError),
    /// The bytes do not start with the snapshot magic.
    BadMagic,
    /// The snapshot was written by a different format version.
    VersionMismatch {
        /// The version recorded in the snapshot.
        found: u32,
    },
    /// The payload checksum does not match — the bytes were corrupted.
    ChecksumMismatch,
    /// The payload failed to decode or failed a state invariant.
    Corrupt(DecodeError),
    /// The stream handed to resume has a different cycle count than the
    /// stream the snapshot was taken against.
    CycleCountMismatch {
        /// Cycles the snapshot expects.
        expected: usize,
        /// Cycles the provided stream has.
        found: usize,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::UnsupportedSystem(e) => write!(f, "system is not checkpointable: {e}"),
            SnapshotError::BadMagic => write!(f, "not a runtime snapshot (bad magic)"),
            SnapshotError::VersionMismatch { found } => write!(
                f,
                "snapshot format version {found} != supported {SNAPSHOT_FORMAT_VERSION}"
            ),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot payload checksum mismatch"),
            SnapshotError::Corrupt(e) => write!(f, "snapshot payload corrupt: {e}"),
            SnapshotError::CycleCountMismatch { expected, found } => write!(
                f,
                "snapshot expects a {expected}-cycle stream, got {found} cycles"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A sealed snapshot: an opaque payload plus the framing that lets a later
/// process validate it before trusting a single byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeSnapshot {
    payload: Vec<u8>,
}

impl RuntimeSnapshot {
    /// Wraps a freshly encoded payload (crate-internal: only
    /// [`crate::PipelinedSystem::snapshot`] produces valid payloads).
    pub(crate) fn seal(payload: Vec<u8>) -> Self {
        Self { payload }
    }

    /// The raw payload bytes (already validated when this snapshot came
    /// from [`RuntimeSnapshot::from_bytes`]).
    pub(crate) fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// The snapshot's serialized size in bytes, framing included.
    pub fn serialized_len(&self) -> usize {
        MAGIC.len() + 4 + 8 + 8 + self.payload.len()
    }

    /// Serializes the snapshot with its magic/version/length/checksum frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&SNAPSHOT_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&frame_checksum(&self.payload).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Validates the frame (magic, version, length, checksum) and returns
    /// the snapshot. The payload's *contents* are validated later, when
    /// [`crate::PipelinedSystem::resume`] decodes them.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let header = MAGIC.len() + 4 + 8 + 8;
        if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < header {
            return Err(SnapshotError::Corrupt(DecodeError::Truncated));
        }
        let version = u32::from_le_bytes(
            bytes[8..12]
                .try_into()
                .expect("invariant: slice is 4 bytes"),
        );
        if version != SNAPSHOT_FORMAT_VERSION {
            return Err(SnapshotError::VersionMismatch { found: version });
        }
        let len = u64::from_le_bytes(
            bytes[12..20]
                .try_into()
                .expect("invariant: slice is 8 bytes"),
        );
        let checksum = u64::from_le_bytes(
            bytes[20..28]
                .try_into()
                .expect("invariant: slice is 8 bytes"),
        );
        let payload = &bytes[header..];
        if payload.len() as u64 != len {
            return Err(SnapshotError::Corrupt(if (payload.len() as u64) < len {
                DecodeError::Truncated
            } else {
                DecodeError::Invalid
            }));
        }
        if frame_checksum(payload) != checksum {
            return Err(SnapshotError::ChecksumMismatch);
        }
        Ok(Self {
            payload: payload.to_vec(),
        })
    }
}

/// Seed of [`frame_checksum`], xored with the payload length.
const CHECKSUM_SEED: u64 = 0xcbf2_9ce4_8422_2325;
/// Odd multiplier that whitens each word off the hash's dependency chain.
const CHECKSUM_WORD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
/// Odd multiplier of the chained state.
const CHECKSUM_STATE_MUL: u64 = 0xbf58_476d_1ce4_e5b9;

/// One checksum step: `rotl(state ^ word·K₁, 29)·K₂`.
///
/// For a fixed word it is a bijection of the state, and for a fixed state a
/// bijection of the word (xor, rotate and odd multipliers all invert), so a
/// corruption confined to one word always changes the result. The rotate
/// feeds the high bits the last multiply produced back down before the next
/// multiply: without it a flip of bit 63 passes every multiply unchanged,
/// and two such flips in neighboring words cancel.
#[inline]
fn checksum_step(state: u64, word: u64) -> u64 {
    (state ^ word.wrapping_mul(CHECKSUM_WORD_MUL))
        .rotate_left(29)
        .wrapping_mul(CHECKSUM_STATE_MUL)
}

/// The frame checksum of a payload: one [`checksum_step`] per 8-byte
/// little-endian word, the zero-padded tail as one last word, seeded with
/// the payload length. The word multiply is off the dependency chain, so
/// the chain costs a xor, a rotate and a multiply per 8 bytes where
/// byte-wise FNV-1a paid a xor and a multiply per byte. It guards against
/// torn writes and bit flips, not adversaries. Shared with the fleet
/// snapshot frame (`crate::fleet`).
pub(crate) fn frame_checksum(payload: &[u8]) -> u64 {
    let mut words = payload.chunks_exact(8);
    let mut state = CHECKSUM_SEED ^ payload.len() as u64;
    for word in &mut words {
        let word: [u8; 8] = word.try_into().expect("invariant: chunk is 8 bytes");
        state = checksum_step(state, u64::from_le_bytes(word));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        state = checksum_step(state, u64::from_le_bytes(last));
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        let snap = RuntimeSnapshot::seal(vec![1, 2, 3, 4, 5]);
        let bytes = snap.to_bytes();
        assert_eq!(bytes.len(), snap.serialized_len());
        assert_eq!(RuntimeSnapshot::from_bytes(&bytes), Ok(snap));
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = RuntimeSnapshot::seal(vec![9; 16]).to_bytes();
        bytes[0] ^= 0xff;
        assert_eq!(
            RuntimeSnapshot::from_bytes(&bytes),
            Err(SnapshotError::BadMagic)
        );
    }

    #[test]
    fn rejects_version_mismatch() {
        let mut bytes = RuntimeSnapshot::seal(vec![9; 16]).to_bytes();
        bytes[8] = 0xfe; // version LE low byte
        assert_eq!(
            RuntimeSnapshot::from_bytes(&bytes),
            Err(SnapshotError::VersionMismatch { found: 0xfe })
        );
    }

    #[test]
    fn rejects_corrupted_payload() {
        let mut bytes = RuntimeSnapshot::seal(vec![9; 16]).to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert_eq!(
            RuntimeSnapshot::from_bytes(&bytes),
            Err(SnapshotError::ChecksumMismatch)
        );
    }

    #[test]
    fn rejects_the_previous_format_version() {
        for found in [5u32, 6] {
            let mut bytes = RuntimeSnapshot::seal(vec![9; 16]).to_bytes();
            bytes[8..12].copy_from_slice(&found.to_le_bytes());
            assert_eq!(
                RuntimeSnapshot::from_bytes(&bytes),
                Err(SnapshotError::VersionMismatch { found })
            );
        }
    }

    #[test]
    fn checksum_known_answers() {
        let cases: [(&[u8], u64); 6] = [
            (b"", 0xcbf2_9ce4_8422_2325),
            (b"a", 0x7f85_ca90_e6a8_6d8d),
            (b"12345678", 0x18eb_6652_afd6_20a4),
            (b"CrowdLearn", 0x46bf_337e_16d0_bcac),
            (&[0; 7], 0xe986_93a6_3404_f7bc),
            (&[0; 8], 0xf141_4f84_9404_f7bc),
        ];
        for (payload, expected) in cases {
            assert_eq!(frame_checksum(payload), expected, "{payload:?}");
        }
        let ramp: Vec<u8> = (0..=255).collect();
        assert_eq!(frame_checksum(&ramp), 0x42e4_c0f1_6858_7762);
    }

    /// A real encoded value: a runtime config with a HIT timeout and a
    /// four-episode fault plan, sealed in a frame.
    fn small_real_frame() -> Vec<u8> {
        let plan = crate::FaultPlan::new(
            0xFA017,
            vec![
                crate::FaultEpisode::PlatformOutage {
                    from_secs: 900.0,
                    until_secs: 2_100.0,
                },
                crate::FaultEpisode::WorkerAttrition {
                    fraction: 0.5,
                    from_secs: 2_100.0,
                    until_secs: 3_300.0,
                },
                crate::FaultEpisode::AnswerLoss {
                    prob: 0.5,
                    from_secs: 3_300.0,
                    until_secs: 4_500.0,
                },
                crate::FaultEpisode::BudgetShock {
                    at_secs: 1_500.0,
                    cents: 40.0,
                },
            ],
        );
        let config = crate::RuntimeConfig::paper()
            .with_hit_timeout(Some(150.0), 2)
            .with_faults(plan);
        RuntimeSnapshot::seal(serde::binary::Encode::to_bytes(&config)).to_bytes()
    }

    #[test]
    fn every_single_bit_flip_of_a_real_frame_is_rejected() {
        let bytes = small_real_frame();
        assert!(bytes.len() > 100 && (bytes.len() - 28) % 8 != 0);
        for bit in 0..bytes.len() * 8 {
            let mut evil = bytes.clone();
            evil[bit / 8] ^= 1 << (bit % 8);
            let result = RuntimeSnapshot::from_bytes(&evil);
            if bit / 8 >= 28 {
                assert_eq!(result, Err(SnapshotError::ChecksumMismatch), "bit {bit}");
            } else {
                assert!(result.is_err(), "header bit {bit} slipped through");
            }
        }
    }

    #[test]
    fn any_corruption_of_one_word_is_rejected() {
        // Splitmix64 drives the payload, the word and the xor mask.
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        // 125 whole words and a 5-byte tail.
        let payload: Vec<u8> = (0..1_005).map(|_| next() as u8).collect();
        let bytes = RuntimeSnapshot::seal(payload.clone()).to_bytes();
        for _ in 0..4_096 {
            let word = (next() % 126) as usize;
            let start = 28 + word * 8;
            let end = (start + 8).min(bytes.len());
            let mut evil = bytes.clone();
            let mask = loop {
                let mask = next().to_le_bytes();
                if mask[..end - start].iter().any(|&b| b != 0) {
                    break mask;
                }
            };
            for (byte, m) in evil[start..end].iter_mut().zip(mask) {
                *byte ^= m;
            }
            assert_eq!(
                RuntimeSnapshot::from_bytes(&evil),
                Err(SnapshotError::ChecksumMismatch),
                "word {word} xor {mask:02x?}"
            );
        }
    }

    #[test]
    fn every_two_bit_flip_of_a_three_word_payload_is_caught() {
        // Byte-serial FNV-1a applied a word at a time lets a bit-63 flip in
        // one word cancel a bit-63 flip in the next; the rotate rules that
        // structure out. Checked exhaustively on one payload.
        let payload: Vec<u8> = (0..24u8).map(|b| b.wrapping_mul(37) ^ 0x5a).collect();
        let sum = frame_checksum(&payload);
        for i in 0..payload.len() * 8 {
            for j in i + 1..payload.len() * 8 {
                let mut evil = payload.clone();
                evil[i / 8] ^= 1 << (i % 8);
                evil[j / 8] ^= 1 << (j % 8);
                assert_ne!(frame_checksum(&evil), sum, "bits {i} and {j}");
            }
        }
    }

    #[test]
    fn rejects_truncation() {
        let bytes = RuntimeSnapshot::seal(vec![9; 16]).to_bytes();
        assert_eq!(
            RuntimeSnapshot::from_bytes(&bytes[..bytes.len() - 3]),
            Err(SnapshotError::Corrupt(DecodeError::Truncated))
        );
        assert_eq!(
            RuntimeSnapshot::from_bytes(&bytes[..10]),
            Err(SnapshotError::Corrupt(DecodeError::Truncated))
        );
    }
}
