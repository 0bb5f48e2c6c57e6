//! The snapshot frame checksum on a real frame: whatever one 8-byte word of
//! the payload is corrupted to, the frame is refused before any payload
//! byte is trusted.

use crowdlearn::CrowdLearnConfig;
use crowdlearn_dataset::{Dataset, DatasetConfig};
use crowdlearn_runtime::{PipelinedSystem, RuntimeConfig, RuntimeSnapshot, SnapshotError};

/// Magic, version, payload length and checksum.
const HEADER: usize = 8 + 4 + 8 + 8;

/// SplitMix64 — seeded word positions and masks.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn one_word_corruptions_of_a_real_frame_are_rejected() {
    let dataset = Dataset::generate(&DatasetConfig::paper());
    let system = PipelinedSystem::new(&dataset, CrowdLearnConfig::paper(), RuntimeConfig::paper());
    let bytes = system.snapshot().expect("checkpointable").to_bytes();
    let words = (bytes.len() - HEADER).div_ceil(8);
    let mut rng = 0x5107_u64;
    for _ in 0..256 {
        let start = HEADER + 8 * (splitmix64(&mut rng) as usize % words);
        let end = (start + 8).min(bytes.len());
        let mask = splitmix64(&mut rng).to_le_bytes();
        if mask[..end - start].iter().all(|&b| b == 0) {
            continue;
        }
        let mut evil = bytes.clone();
        for (byte, m) in evil[start..end].iter_mut().zip(mask) {
            *byte ^= m;
        }
        assert_eq!(
            RuntimeSnapshot::from_bytes(&evil),
            Err(SnapshotError::ChecksumMismatch),
            "corrupting the word at byte {start} slipped through"
        );
    }
}
