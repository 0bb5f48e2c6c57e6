//! snapcheck — the codec-drift analysis pass (rules D7/D8/D9).
//!
//! The snapshot formats (`RuntimeSnapshot`, `FleetSnapshot`) are hand-written
//! binary codecs: every `fn encode` writes an ordered field sequence that the
//! paired `fn decode` must read back in exactly the same order. Nothing in
//! rustc checks that symmetry, and a drifted pair silently corrupts resume.
//! This module enforces it at the same lexer level as the D1–D6 rules:
//!
//! * **D7 `codec-symmetry`** — pairs each `encode*` fn with the `decode*` fn
//!   of the same impl target and name suffix in the same file, extracts the
//!   ordered field-write/field-read sequences at token level, and flags count
//!   or order mismatches and fields written-but-never-read (or vice versa).
//! * **D8 `schema-lock`** — fingerprints each pair (FNV-1a-64 over the
//!   canonical encode sequence + the decode op count) together with every
//!   `*VERSION*` integer constant in codec scope, and compares against the
//!   committed `SNAPSHOT_SCHEMA.lock`. Drift without a lock update fails; the
//!   lock is only regenerated via `--update-schema-lock`, which refuses to
//!   rewrite a changed or removed fingerprint unless some version constant
//!   changed too. D8 deliberately has **no** `allow` escape — the lockfile
//!   (plus a version bump) *is* the escape hatch.
//! * **D9 `lossy-cast`** — flags `as` numeric casts inside codec fns, where a
//!   silent truncation becomes a silent wire-format corruption. Use
//!   `try_from` (or a stated-invariant `expect`) or a justified
//!   `// detlint: allow(lossy-cast): why`.
//!
//! Heuristics are tuned to the workspace's codec idioms (struct-literal
//! decodes, `let`-bound decodes, tag-dispatched enums via `match`, length
//! prefixes + element loops) and err toward silence: an op whose field name
//! cannot be determined is a wildcard that matches anything.

use std::collections::BTreeMap;

use crate::{ident_matches, Finding, LexedFile, Rule};

/// Workspace-relative path of the committed schema lockfile.
pub const SCHEMA_LOCK_FILE: &str = "SNAPSHOT_SCHEMA.lock";

const NUMERIC_TYPES: [&str; 14] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// Identifiers that never name a field when they appear in an encode
/// receiver: the codec plumbing itself plus primitive type names.
fn is_plumbing_ident(word: &str) -> bool {
    matches!(word, "self" | "Self" | "as" | "out" | "r" | "mut" | "ref")
        || NUMERIC_TYPES.contains(&word)
}

// ---------------------------------------------------------------------------
// Op extraction.
// ---------------------------------------------------------------------------

/// How confidently an op names a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    /// A field write/read with candidate names attached.
    Named,
    /// An enum discriminant (literal tag or `match` scrutinee/dispatch).
    Tag,
    /// A write/read whose field could not be determined; matches anything.
    Anon,
}

/// One `.encode(out)` write or `::decode(r)?` read inside a codec fn.
#[derive(Debug, Clone)]
struct CodecOp {
    kind: OpKind,
    /// Candidate field names (identifier segments of the receiver for
    /// encodes, the binding/field name for decodes). Empty iff not `Named`.
    names: Vec<String>,
    /// Canonical receiver text (whitespace-stripped) — fingerprint input.
    canon: String,
    /// 0-based line, 0-based column, span of the anchor token.
    line: usize,
    column: usize,
    span: usize,
}

impl CodecOp {
    fn is_wild(&self) -> bool {
        self.kind != OpKind::Named
    }

    fn display_name(&self) -> &str {
        self.names.first().map(String::as_str).unwrap_or("<anon>")
    }

    fn shares_name(&self, other: &CodecOp) -> bool {
        self.names.iter().any(|n| other.names.contains(n))
    }
}

/// One `fn encode*`/`fn decode*` found inside an `impl` block.
#[derive(Debug, Clone)]
struct CodecFn {
    is_encode: bool,
    /// The impl target type, e.g. `Worker`.
    type_name: String,
    /// The fn-name tail after `encode`/`decode`, e.g. `""` or `"_state"`.
    suffix: String,
    fn_name: String,
    /// 0-based header position of the fn name.
    header_line: usize,
    header_column: usize,
    ops: Vec<CodecOp>,
    /// Body contains a `match` — field order is branch-dependent, so the
    /// comparison falls back to multiset matching.
    dynamic: bool,
    /// `as <numeric>` cast sites in the body: (line, column, span).
    casts: Vec<(usize, usize, usize)>,
}

impl CodecFn {
    /// `Worker` or `CrowdLearnSystem::state` (suffix with `_` stripped).
    fn pair_name(&self) -> String {
        let tail = self.suffix.trim_start_matches('_');
        if tail.is_empty() {
            self.type_name.clone()
        } else {
            format!("{}::{tail}", self.type_name)
        }
    }
}

/// Extracts the impl target type from a line, if it opens an `impl` block.
fn impl_target(line: &str) -> Option<String> {
    let trimmed = line.trim_start();
    let rest = trimmed.strip_prefix("impl")?;
    if !rest.starts_with([' ', '<']) {
        return None;
    }
    // Skip `impl<...>` generic params (angle brackets never nest with `->`
    // in an impl header).
    let rest = if let Some(generics) = rest.strip_prefix('<') {
        let mut depth = 1usize;
        let mut end = None;
        for (i, c) in generics.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(i + 1);
                        break;
                    }
                }
                _ => {}
            }
        }
        &generics[end?..]
    } else {
        rest
    };
    let rest = rest.trim_start();
    // `impl Encode for Worker {` → take after ` for `; `impl Worker {` → as is.
    let target = match rest.find(" for ") {
        Some(i) => rest[i + " for ".len()..].trim_start(),
        None => rest,
    };
    let end = target
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(target.len());
    let name = &target[..end];
    if name.is_empty() || name.as_bytes()[0].is_ascii_digit() {
        return None;
    }
    Some(name.to_string())
}

/// If `line` declares a fn named `encode*`/`decode*`, returns
/// (is_encode, suffix, fn_name, name column).
fn codec_fn_header(line: &str) -> Option<(bool, String, String, usize)> {
    for at in ident_matches(line, "fn") {
        let after = line[at + 2..].trim_start();
        let ws = line[at + 2..].len() - after.len();
        let name_start = at + 2 + ws;
        let end = after
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(after.len());
        let name = &after[..end];
        if !after[end..].trim_start().starts_with('(') {
            continue;
        }
        for (prefix, is_encode) in [("encode", true), ("decode", false)] {
            if let Some(suffix) = name.strip_prefix(prefix) {
                return Some((is_encode, suffix.to_string(), name.to_string(), name_start));
            }
        }
    }
    None
}

/// Scans backward from the `.` of `.encode(` to the start of the receiver
/// postfix expression, balancing one level of call parentheses per step.
fn receiver_start(line: &str, dot: usize) -> usize {
    let bytes = line.as_bytes();
    let mut i = dot;
    while i > 0 {
        let c = bytes[i - 1];
        if c == b')' {
            let mut depth = 0usize;
            let mut j = i;
            let mut closed = false;
            while j > 0 {
                match bytes[j - 1] {
                    b')' => depth += 1,
                    b'(' => {
                        depth -= 1;
                        if depth == 0 {
                            j -= 1;
                            closed = true;
                            break;
                        }
                    }
                    _ => {}
                }
                j -= 1;
            }
            if !closed {
                break;
            }
            i = j;
        } else if c == b'.' || c == b':' || c == b'_' || c.is_ascii_alphanumeric() {
            i -= 1;
        } else {
            break;
        }
    }
    i
}

/// Splits text into identifier tokens (runs of `[A-Za-z_][A-Za-z0-9_]*`).
fn ident_tokens(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'_' || b.is_ascii_alphabetic() {
            let start = i;
            while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric()) {
                i += 1;
            }
            out.push(text[start..i].to_string());
        } else if b.is_ascii_digit() {
            // Skip the whole numeric literal including type suffixes so
            // `0u8` does not contribute a `u8` token.
            while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric()) {
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    out
}

/// Builds the encode op for a `.encode(` at byte `dot` of `line`.
fn encode_op(line: &str, line_idx: usize, dot: usize) -> CodecOp {
    let start = receiver_start(line, dot);
    let receiver = &line[start..dot];
    let canon: String = receiver.chars().filter(|c| !c.is_whitespace()).collect();
    let span = dot.saturating_sub(start).max(1);
    let starts_numeric = canon.as_bytes().first().is_some_and(u8::is_ascii_digit);
    let names: Vec<String> = ident_tokens(receiver)
        .into_iter()
        .filter(|w| !is_plumbing_ident(w) && w.len() > 1)
        .collect();
    let kind = if starts_numeric || names == ["tag"] {
        OpKind::Tag
    } else if names.is_empty() {
        OpKind::Anon
    } else {
        OpKind::Named
    };
    CodecOp {
        kind,
        names: if kind == OpKind::Named {
            names
        } else {
            Vec::new()
        },
        canon,
        line: line_idx,
        column: start,
        span,
    }
}

/// Builds the decode op for a `decode(` at byte `at` of `line` (already
/// known to be preceded by `.` or `:`).
fn decode_op(line: &str, line_idx: usize, at: usize) -> CodecOp {
    let trimmed = line.trim_start();
    let name = decode_binding_name(trimmed);
    let (kind, names) = match name {
        DecodeName::Tag => (OpKind::Tag, Vec::new()),
        DecodeName::Anon => (OpKind::Anon, Vec::new()),
        DecodeName::Named(n) => (OpKind::Named, vec![n]),
    };
    CodecOp {
        kind,
        names,
        canon: String::new(),
        line: line_idx,
        column: at,
        span: "decode".len(),
    }
}

enum DecodeName {
    Named(String),
    Tag,
    Anon,
}

/// Names a decode op from the shape of its (trimmed) line: a `let` binding,
/// a struct-literal field, or a `match` dispatch.
fn decode_binding_name(trimmed: &str) -> DecodeName {
    if trimmed.starts_with("match ") || trimmed.starts_with("match(") {
        return DecodeName::Tag;
    }
    if let Some(rest) = trimmed.strip_prefix("let ") {
        let rest = rest.strip_prefix("mut ").unwrap_or(rest);
        let end = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        let name = &rest[..end];
        if name == "tag" {
            return DecodeName::Tag;
        }
        if name.len() > 1 && !name.as_bytes()[0].is_ascii_digit() {
            return DecodeName::Named(name.to_string());
        }
        return DecodeName::Anon;
    }
    // Struct-literal field: `reliability: f64::decode(r)?,` — a single `:`
    // right after the leading identifier (`::` would be a path).
    let end = trimmed
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(trimmed.len());
    let name = &trimmed[..end];
    if !name.is_empty()
        && !name.as_bytes()[0].is_ascii_digit()
        && trimmed[end..].starts_with(':')
        && !trimmed[end..].starts_with("::")
    {
        if name == "tag" {
            return DecodeName::Tag;
        }
        if name.len() > 1 {
            return DecodeName::Named(name.to_string());
        }
    }
    DecodeName::Anon
}

/// Extracts every codec fn (with its ops and casts) from a lexed file.
/// `#[cfg(test)]` regions are skipped — test codecs are not wire format.
fn collect_codec_fns(lexed: &LexedFile) -> Vec<CodecFn> {
    let mut fns = Vec::new();
    let mut depth: i64 = 0;
    let mut cur_impl: Option<(String, i64)> = None;
    let mut i = 0;
    while i < lexed.code.len() {
        let line = &lexed.code[i];
        if let Some(ty) = impl_target(line) {
            cur_impl = Some((ty, depth));
        }
        if !lexed.in_test[i] {
            if let (Some((ty, _)), Some((is_encode, suffix, fn_name, col))) =
                (cur_impl.as_ref(), codec_fn_header(line))
            {
                if let Some(end) = fn_body_end(lexed, i, col) {
                    fns.push(scan_codec_fn(
                        lexed, i, end, is_encode, ty, &suffix, &fn_name, col,
                    ));
                    // The body is brace-balanced; net depth change is zero.
                    i = end + 1;
                    continue;
                }
            }
        }
        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if cur_impl.as_ref().is_some_and(|(_, floor)| depth <= *floor) {
                        cur_impl = None;
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }
    fns
}

/// Finds the last line of the fn body opened at (`line_idx`, after `col`).
/// Returns `None` for bodyless declarations (trait signatures).
fn fn_body_end(lexed: &LexedFile, line_idx: usize, col: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut opened = false;
    for (off, line) in lexed.code[line_idx..].iter().enumerate() {
        let start = if off == 0 { col } else { 0 };
        for c in line[start.min(line.len())..].chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => {
                    depth -= 1;
                    if opened && depth == 0 {
                        return Some(line_idx + off);
                    }
                }
                ';' if !opened && depth == 0 => return None,
                _ => {}
            }
        }
    }
    None
}

#[allow(clippy::too_many_arguments)]
fn scan_codec_fn(
    lexed: &LexedFile,
    start: usize,
    end: usize,
    is_encode: bool,
    type_name: &str,
    suffix: &str,
    fn_name: &str,
    header_col: usize,
) -> CodecFn {
    let mut ops = Vec::new();
    let mut casts = Vec::new();
    let mut dynamic = false;
    for (idx, line) in lexed.code[start..=end].iter().enumerate() {
        let line_idx = start + idx;
        if !ident_matches(line, "match").is_empty() {
            dynamic = true;
        }
        if is_encode {
            let mut from = 0;
            while let Some(pos) = line[from..].find(".encode(") {
                let dot = from + pos;
                ops.push(encode_op(line, line_idx, dot));
                from = dot + ".encode(".len();
            }
        } else {
            for at in ident_matches(line, "decode") {
                let preceded = at > 0 && matches!(line.as_bytes()[at - 1], b'.' | b':');
                if preceded && line[at..].starts_with("decode(") {
                    ops.push(decode_op(line, line_idx, at));
                }
            }
        }
        for at in ident_matches(line, "as") {
            let after = line[at + 2..].trim_start();
            let ws = line[at + 2..].len() - after.len();
            let end_ty = after
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(after.len());
            if NUMERIC_TYPES.contains(&&after[..end_ty]) {
                casts.push((line_idx, at, 2 + ws + end_ty));
            }
        }
    }
    CodecFn {
        is_encode,
        type_name: type_name.to_string(),
        suffix: suffix.to_string(),
        fn_name: fn_name.to_string(),
        header_line: start,
        header_column: header_col,
        ops,
        dynamic,
        casts,
    }
}

// ---------------------------------------------------------------------------
// D7 comparison + D9 casts.
// ---------------------------------------------------------------------------

type Push<'a> = dyn FnMut(Rule, usize, usize, usize, String) + 'a;

/// Runs D7 (codec symmetry) and D9 (lossy casts) over one lexed file,
/// reporting through the caller's allow-aware `push`.
pub(crate) fn check_codecs(lexed: &LexedFile, d7: bool, d9: bool, push: &mut Push<'_>) {
    let fns = collect_codec_fns(lexed);

    if d9 {
        for f in &fns {
            for &(line, col, span) in &f.casts {
                push(
                    Rule::LossyCast,
                    line,
                    col,
                    span,
                    format!(
                        "numeric `as` cast in codec fn `{}::{}` can silently truncate \
                         the wire value",
                        f.type_name, f.fn_name
                    ),
                );
            }
        }
    }

    if !d7 {
        return;
    }
    let mut pairs: BTreeMap<(String, String), (Option<usize>, Option<usize>)> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        let slot = pairs
            .entry((f.type_name.clone(), f.suffix.clone()))
            .or_default();
        if f.is_encode {
            slot.0.get_or_insert(i);
        } else {
            slot.1.get_or_insert(i);
        }
    }
    for (enc_idx, dec_idx) in pairs.values() {
        match (enc_idx, dec_idx) {
            (Some(e), Some(d)) => compare_pair(&fns[*e], &fns[*d], push),
            (Some(i), None) | (None, Some(i)) => {
                let f = &fns[*i];
                let other = if f.is_encode {
                    format!("decode{}", f.suffix)
                } else {
                    format!("encode{}", f.suffix)
                };
                push(
                    Rule::CodecSymmetry,
                    f.header_line,
                    f.header_column,
                    f.fn_name.len(),
                    format!(
                        "`{}::{}` has no matching `{}::{other}` in this file \
                         (codec pairs must live together)",
                        f.type_name, f.fn_name, f.type_name
                    ),
                );
            }
            (None, None) => unreachable!("pair entry created without a member"),
        }
    }
}

fn compare_pair(enc: &CodecFn, dec: &CodecFn, push: &mut Push<'_>) {
    let pair = enc.pair_name();
    if enc.dynamic || dec.dynamic {
        // Branch-dependent bodies: compare named ops as a multiset, letting
        // wildcards on the other side absorb what we cannot name.
        let mut dec_used = vec![false; dec.ops.len()];
        let mut enc_unmatched = Vec::new();
        for op in enc.ops.iter().filter(|o| !o.is_wild()) {
            let hit = dec
                .ops
                .iter()
                .enumerate()
                .find(|(j, d)| !dec_used[*j] && !d.is_wild() && op.shares_name(d));
            match hit {
                Some((j, _)) => dec_used[j] = true,
                None => enc_unmatched.push(op),
            }
        }
        // Only genuinely-unnameable ops absorb leftovers: a `match`
        // scrutinee tag reads one discriminant, not arbitrary fields.
        let dec_anon = dec.ops.iter().filter(|o| o.kind == OpKind::Anon).count();
        if dec_anon == 0 {
            for op in enc_unmatched {
                push(
                    Rule::CodecSymmetry,
                    op.line,
                    op.column,
                    op.span,
                    format!(
                        "`{pair}` codec drift: field `{}` is written by `{}` but never \
                         read by `{}`",
                        op.display_name(),
                        enc.fn_name,
                        dec.fn_name
                    ),
                );
            }
        }
        let enc_anon = enc.ops.iter().filter(|o| o.kind == OpKind::Anon).count();
        if enc_anon == 0 {
            for (j, d) in dec.ops.iter().enumerate() {
                if !d.is_wild() && !dec_used[j] {
                    push(
                        Rule::CodecSymmetry,
                        d.line,
                        d.column,
                        d.span,
                        format!(
                            "`{pair}` codec drift: field `{}` is read by `{}` but never \
                             written by `{}`",
                            d.display_name(),
                            dec.fn_name,
                            enc.fn_name
                        ),
                    );
                }
            }
        }
        return;
    }

    // Straight-line bodies: the sequences must agree position by position.
    if enc.ops.len() != dec.ops.len() {
        push(
            Rule::CodecSymmetry,
            enc.header_line,
            enc.header_column,
            enc.fn_name.len(),
            format!(
                "`{pair}` codec drift: `{}` writes {} field(s) but `{}` reads {}",
                enc.fn_name,
                enc.ops.len(),
                dec.fn_name,
                dec.ops.len()
            ),
        );
        return;
    }
    for (pos, (e, d)) in enc.ops.iter().zip(&dec.ops).enumerate() {
        if !e.is_wild() && !d.is_wild() && !e.shares_name(d) {
            push(
                Rule::CodecSymmetry,
                e.line,
                e.column,
                e.span,
                format!(
                    "`{pair}` codec field order mismatch at position {}: `{}` writes \
                     `{}` where `{}` reads `{}`",
                    pos + 1,
                    enc.fn_name,
                    e.display_name(),
                    dec.fn_name,
                    d.display_name()
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// D8 schema fingerprints + lockfile.
// ---------------------------------------------------------------------------

/// FNV-1a-64 — the lockfile fingerprint of a pair's canonical text.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A fingerprinted codec pair, with the anchor needed to report drift.
#[derive(Debug, Clone)]
pub struct CodecFingerprint {
    /// Workspace-relative file path.
    pub path: String,
    /// Pair name, e.g. `Worker` or `CrowdLearnSystem::state`.
    pub name: String,
    /// FNV-1a-64 over the canonical encode sequence + decode op count.
    pub fingerprint: u64,
    /// 1-based line of the encode fn header (drift findings anchor here).
    pub line: usize,
    /// 1-based column of the encode fn name.
    pub column: usize,
    /// Length of the encode fn name.
    pub span: usize,
    /// The raw header line, for diagnostics.
    pub snippet: String,
}

/// A `*VERSION*` integer constant in codec scope.
#[derive(Debug, Clone)]
pub struct VersionConst {
    /// `crate/CONST_NAME`.
    pub key: String,
    /// The constant's integer value.
    pub value: u64,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line of the `const` item.
    pub line: usize,
    /// 1-based column of the constant name.
    pub column: usize,
    /// Length of the constant name.
    pub span: usize,
    /// The raw line, for diagnostics.
    pub snippet: String,
}

/// Everything D8 compares against the lockfile.
#[derive(Debug, Clone, Default)]
pub struct SchemaReport {
    /// One fingerprint per complete encode/decode pair, in walk order.
    pub fingerprints: Vec<CodecFingerprint>,
    /// Every `*VERSION*` constant in codec scope.
    pub version_consts: Vec<VersionConst>,
}

impl SchemaReport {
    /// Collapses the report to the comparable lock representation.
    pub fn to_lock(&self) -> SchemaLock {
        SchemaLock {
            version_consts: self
                .version_consts
                .iter()
                .map(|c| (c.key.clone(), c.value))
                .collect(),
            codecs: self
                .fingerprints
                .iter()
                .map(|f| ((f.path.clone(), f.name.clone()), f.fingerprint))
                .collect(),
        }
    }
}

/// The parsed (or freshly computed) contents of `SNAPSHOT_SCHEMA.lock`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchemaLock {
    /// `crate/CONST_NAME` → value.
    pub version_consts: BTreeMap<String, u64>,
    /// (path, pair name) → fingerprint.
    pub codecs: BTreeMap<(String, String), u64>,
}

impl SchemaLock {
    /// Renders the deterministic lockfile text.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# SNAPSHOT_SCHEMA.lock — FNV-1a-64 fingerprints of every Encode/Decode pair\n\
             # in codec scope, plus the *VERSION* constants that gate them.\n\
             # Regenerate with: cargo run -p detlint -- --update-schema-lock\n\
             # (regeneration refuses fingerprint changes without a version-constant bump;\n\
             # detlint rule D8 fails CI whenever the tree drifts from this file)\n",
        );
        for (key, value) in &self.version_consts {
            out.push_str(&format!("version-const {key} = {value}\n"));
        }
        for ((path, name), fp) in &self.codecs {
            out.push_str(&format!("codec {path} {name} {fp:#018x}\n"));
        }
        out
    }

    /// Parses lockfile text; errors carry the 1-based offending line.
    pub fn parse(text: &str) -> Result<SchemaLock, String> {
        let mut lock = SchemaLock::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |m: &str| format!("{SCHEMA_LOCK_FILE}:{}: {m}", idx + 1);
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                ["version-const", key, "=", value] => {
                    let value = value
                        .parse::<u64>()
                        .map_err(|_| err("version-const value must be an integer"))?;
                    lock.version_consts.insert((*key).to_string(), value);
                }
                ["codec", path, name, fp] => {
                    let digits = fp
                        .strip_prefix("0x")
                        .ok_or_else(|| err("codec fingerprint must be 0x-prefixed hex"))?;
                    let fp = u64::from_str_radix(digits, 16)
                        .map_err(|_| err("codec fingerprint must be 0x-prefixed hex"))?;
                    lock.codecs
                        .insert(((*path).to_string(), (*name).to_string()), fp);
                }
                _ => {
                    return Err(err(
                        "expected `version-const <key> = <int>` or `codec <path> <name> <0xhex>`",
                    ))
                }
            }
        }
        Ok(lock)
    }
}

/// Collects the schema contributions of one file into `report`.
pub(crate) fn collect_into(
    lexed: &LexedFile,
    path: &str,
    crate_name: &str,
    report: &mut SchemaReport,
) {
    let fns = collect_codec_fns(lexed);
    let mut pairs: BTreeMap<(String, String), (Option<usize>, Option<usize>)> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        let slot = pairs
            .entry((f.type_name.clone(), f.suffix.clone()))
            .or_default();
        if f.is_encode {
            slot.0.get_or_insert(i);
        } else {
            slot.1.get_or_insert(i);
        }
    }
    for (enc_idx, dec_idx) in pairs.values() {
        let (Some(e), Some(d)) = (enc_idx, dec_idx) else {
            continue; // unpaired fns are a D7 finding, not a schema entry
        };
        let (enc, dec) = (&fns[*e], &fns[*d]);
        let name = enc.pair_name();
        let canon_ops: Vec<&str> = enc.ops.iter().map(|o| o.canon.as_str()).collect();
        let canon = format!("{name}|e:{}|d:{}", canon_ops.join(","), dec.ops.len());
        report.fingerprints.push(CodecFingerprint {
            path: path.to_string(),
            name,
            fingerprint: fnv1a64(canon.as_bytes()),
            line: enc.header_line + 1,
            column: enc.header_column + 1,
            span: enc.fn_name.len(),
            snippet: lexed.raw[enc.header_line].clone(),
        });
    }
    for (idx, line) in lexed.code.iter().enumerate() {
        if lexed.in_test[idx] {
            continue;
        }
        for at in ident_matches(line, "const") {
            let after = line[at + 5..].trim_start();
            let ws = line[at + 5..].len() - after.len();
            let end = after
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(after.len());
            let ident = &after[..end];
            if !ident.contains("VERSION") {
                continue;
            }
            let Some(eq) = after[end..].find('=') else {
                continue;
            };
            let Some(value) = parse_int_literal(after[end + eq + 1..].trim_start()) else {
                continue;
            };
            report.version_consts.push(VersionConst {
                key: format!("{crate_name}/{ident}"),
                value,
                path: path.to_string(),
                line: idx + 1,
                column: at + 5 + ws + 1,
                span: ident.len(),
                snippet: lexed.raw[idx].clone(),
            });
        }
    }
}

/// Parses the leading integer literal of `text` (`3`, `0x10`, `1_000u32`).
fn parse_int_literal(text: &str) -> Option<u64> {
    let (radix, digits) = match text.strip_prefix("0x") {
        Some(rest) => (16, rest),
        None => (10, text),
    };
    let end = digits
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(digits.len());
    // Strip a trailing type suffix (`u32`, `usize`, ...).
    let token = &digits[..end];
    let numeric_end = token
        .find(|c: char| !(c.is_ascii_hexdigit() && (radix == 16 || c.is_ascii_digit()) || c == '_'))
        .unwrap_or(token.len());
    let cleaned: String = token[..numeric_end].chars().filter(|&c| c != '_').collect();
    if cleaned.is_empty() {
        return None;
    }
    u64::from_str_radix(&cleaned, radix).ok()
}

/// Compares the collected schema against the lockfile text (if any) and
/// returns D8 findings. No codec pairs in scope → no lock required.
pub(crate) fn schema_findings(report: &SchemaReport, lock_text: Option<&str>) -> Vec<Finding> {
    if report.fingerprints.is_empty() {
        return Vec::new();
    }
    let lock_anchor = |message: String| Finding {
        rule: Rule::SchemaLock,
        path: SCHEMA_LOCK_FILE.to_string(),
        line: 1,
        column: 1,
        span: 1,
        message,
        snippet: String::new(),
    };
    let Some(text) = lock_text else {
        return vec![lock_anchor(format!(
            "{SCHEMA_LOCK_FILE} is missing but {} codec pair(s) are in scope; \
             generate it with `--update-schema-lock`",
            report.fingerprints.len()
        ))];
    };
    let lock = match SchemaLock::parse(text) {
        Ok(lock) => lock,
        Err(e) => return vec![lock_anchor(e)],
    };
    let mut findings = Vec::new();
    for fp in &report.fingerprints {
        let key = (fp.path.clone(), fp.name.clone());
        match lock.codecs.get(&key) {
            None => findings.push(Finding {
                rule: Rule::SchemaLock,
                path: fp.path.clone(),
                line: fp.line,
                column: fp.column,
                span: fp.span,
                message: format!(
                    "codec `{}` is not in {SCHEMA_LOCK_FILE}; regenerate it with \
                     `--update-schema-lock`",
                    fp.name
                ),
                snippet: fp.snippet.clone(),
            }),
            Some(&locked) if locked != fp.fingerprint => findings.push(Finding {
                rule: Rule::SchemaLock,
                path: fp.path.clone(),
                line: fp.line,
                column: fp.column,
                span: fp.span,
                message: format!(
                    "codec `{}` schema fingerprint drifted from {SCHEMA_LOCK_FILE} \
                     ({locked:#018x} -> {:#018x}); bump the snapshot format version and \
                     regenerate the lock",
                    fp.name, fp.fingerprint
                ),
                snippet: fp.snippet.clone(),
            }),
            Some(_) => {}
        }
    }
    let current = report.to_lock();
    for (path, name) in lock.codecs.keys() {
        if !current.codecs.contains_key(&(path.clone(), name.clone())) {
            findings.push(lock_anchor(format!(
                "codec `{name}` ({path}) is in {SCHEMA_LOCK_FILE} but no longer in \
                 the tree; regenerate the lock with `--update-schema-lock`"
            )));
        }
    }
    for vc in &report.version_consts {
        match lock.version_consts.get(&vc.key) {
            None => findings.push(Finding {
                rule: Rule::SchemaLock,
                path: vc.path.clone(),
                line: vc.line,
                column: vc.column,
                span: vc.span,
                message: format!(
                    "version constant `{}` is not in {SCHEMA_LOCK_FILE}; regenerate it \
                     with `--update-schema-lock`",
                    vc.key
                ),
                snippet: vc.snippet.clone(),
            }),
            Some(&locked) if locked != vc.value => findings.push(Finding {
                rule: Rule::SchemaLock,
                path: vc.path.clone(),
                line: vc.line,
                column: vc.column,
                span: vc.span,
                message: format!(
                    "version constant `{}` = {} does not match {SCHEMA_LOCK_FILE} ({}); \
                     regenerate the lock with `--update-schema-lock`",
                    vc.key, vc.value, locked
                ),
                snippet: vc.snippet.clone(),
            }),
            Some(_) => {}
        }
    }
    for key in lock.version_consts.keys() {
        if !current.version_consts.contains_key(key) {
            findings.push(lock_anchor(format!(
                "version constant `{key}` is in {SCHEMA_LOCK_FILE} but no longer in \
                 the tree; regenerate the lock with `--update-schema-lock`"
            )));
        }
    }
    findings
}

/// Computes the new lockfile text, refusing when a codec fingerprint changed
/// or disappeared while every `*VERSION*` constant kept its old value — the
/// rule that makes a silent schema change impossible to land.
pub fn plan_schema_update(
    report: &SchemaReport,
    old: Option<&SchemaLock>,
) -> Result<String, String> {
    let new = report.to_lock();
    if let Some(old) = old {
        let changed: Vec<&(String, String)> = new
            .codecs
            .iter()
            .filter(|(k, v)| old.codecs.get(*k).is_some_and(|o| o != *v))
            .map(|(k, _)| k)
            .collect();
        let removed: Vec<&(String, String)> = old
            .codecs
            .keys()
            .filter(|k| !new.codecs.contains_key(*k))
            .collect();
        if (!changed.is_empty() || !removed.is_empty()) && new.version_consts == old.version_consts
        {
            let mut names: Vec<&str> = changed
                .iter()
                .chain(removed.iter())
                .map(|(_, name)| name.as_str())
                .collect();
            names.sort_unstable();
            names.dedup();
            return Err(format!(
                "refusing to regenerate {SCHEMA_LOCK_FILE}: codec schema changed \
                 ({}) but no *VERSION* constant was bumped; bump the snapshot format \
                 version first so old frames are rejected instead of misparsed",
                names.join(", ")
            ));
        }
    }
    Ok(new.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex;

    fn ops_of(src: &str, encode: bool) -> Vec<(OpKind, Vec<String>)> {
        let lexed = lex(src);
        let fns = collect_codec_fns(&lexed);
        let f = fns
            .iter()
            .find(|f| f.is_encode == encode)
            .expect("codec fn present");
        f.ops.iter().map(|o| (o.kind, o.names.clone())).collect()
    }

    #[test]
    fn encode_receivers_yield_candidate_sets() {
        let src = "impl Encode for W {\n    fn encode(&self, out: &mut Vec<u8>) {\n        \
                   self.id.0.encode(out);\n        self.rng.state().encode(out);\n        \
                   self.inflight.len().encode(out);\n        0u8.encode(out);\n        \
                   tag.encode(out);\n    }\n}\n";
        let ops = ops_of(src, true);
        assert_eq!(ops[0], (OpKind::Named, vec!["id".to_string()]));
        assert_eq!(
            ops[1],
            (OpKind::Named, vec!["rng".to_string(), "state".to_string()])
        );
        assert_eq!(
            ops[2],
            (
                OpKind::Named,
                vec!["inflight".to_string(), "len".to_string()]
            )
        );
        assert_eq!(ops[3].0, OpKind::Tag);
        assert_eq!(ops[4].0, OpKind::Tag);
    }

    #[test]
    fn decode_bindings_yield_names() {
        let src = "impl Decode for W {\n    fn decode(r: &mut Reader<'_>) -> Result<Self, E> {\n        \
                   let id = WorkerId(u32::decode(r)?);\n        let n = usize::decode(r)?;\n        \
                   Ok(Self {\n            reliability: f64::decode(r)?,\n            \
                   speed: Decode::decode(r)?,\n        })\n    }\n}\n";
        let ops = ops_of(src, false);
        assert_eq!(ops[0], (OpKind::Named, vec!["id".to_string()]));
        assert_eq!(ops[1].0, OpKind::Anon); // single-char binding → wildcard
        assert_eq!(ops[2], (OpKind::Named, vec!["reliability".to_string()]));
        assert_eq!(ops[3], (OpKind::Named, vec!["speed".to_string()]));
    }

    #[test]
    fn match_scrutinee_and_tag_bindings_are_tags() {
        let src =
            "impl Decode for E {\n    fn decode(r: &mut Reader<'_>) -> Result<Self, X> {\n        \
                   match u8::decode(r)? {\n            0 => Ok(E::A),\n            \
                   _ => Err(X),\n        }\n    }\n}\n";
        let ops = ops_of(src, false);
        assert_eq!(ops[0].0, OpKind::Tag);
    }

    #[test]
    fn trait_declarations_have_no_body() {
        let src = "pub trait Encode {\n    fn encode(&self, out: &mut Vec<u8>);\n}\n";
        let lexed = lex(src);
        assert!(collect_codec_fns(&lexed).is_empty());
    }

    #[test]
    fn cfg_test_codecs_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    impl Encode for T {\n        \
                   fn encode(&self, out: &mut Vec<u8>) { self.x.encode(out); }\n    }\n}\n";
        let lexed = lex(src);
        assert!(collect_codec_fns(&lexed).is_empty());
    }

    #[test]
    fn lock_round_trips_through_render_and_parse() {
        let mut lock = SchemaLock::default();
        lock.version_consts
            .insert("runtime/SNAPSHOT_FORMAT_VERSION".to_string(), 3);
        lock.codecs.insert(
            ("crates/a/src/lib.rs".to_string(), "W".to_string()),
            0x1234_5678_9abc_def0,
        );
        let parsed = SchemaLock::parse(&lock.render()).expect("round trip");
        assert_eq!(parsed, lock);
    }

    #[test]
    fn lock_parse_rejects_malformed_lines_with_position() {
        let err = SchemaLock::parse("codec a b nothex\n").unwrap_err();
        assert!(err.starts_with("SNAPSHOT_SCHEMA.lock:1:"), "{err}");
        let err = SchemaLock::parse("\n\nwhatever\n").unwrap_err();
        assert!(err.starts_with("SNAPSHOT_SCHEMA.lock:3:"), "{err}");
    }

    #[test]
    fn update_refuses_fingerprint_change_without_version_bump() {
        let mut report = SchemaReport::default();
        report.fingerprints.push(CodecFingerprint {
            path: "crates/a/src/lib.rs".to_string(),
            name: "W".to_string(),
            fingerprint: 2,
            line: 1,
            column: 1,
            span: 6,
            snippet: String::new(),
        });
        report.version_consts.push(VersionConst {
            key: "a/FORMAT_VERSION".to_string(),
            value: 1,
            path: "crates/a/src/lib.rs".to_string(),
            line: 1,
            column: 1,
            span: 14,
            snippet: String::new(),
        });
        let mut old = report.to_lock();
        old.codecs
            .insert(("crates/a/src/lib.rs".to_string(), "W".to_string()), 1);
        let err = plan_schema_update(&report, Some(&old)).unwrap_err();
        assert!(err.contains("refusing to regenerate"), "{err}");
        assert!(err.contains("W"), "{err}");

        // Bumping the version constant unlocks the same update.
        old.version_consts.insert("a/FORMAT_VERSION".to_string(), 0);
        let text = plan_schema_update(&report, Some(&old)).expect("bump unlocks");
        assert!(text.contains("codec crates/a/src/lib.rs W 0x0000000000000002"));

        // Pure additions never need a bump.
        let fresh = plan_schema_update(&report, None).expect("first generation");
        assert!(fresh.contains("version-const a/FORMAT_VERSION = 1"));
    }

    #[test]
    fn version_consts_are_tokenized_with_values() {
        let src = "pub const SNAPSHOT_FORMAT_VERSION: u32 = 3;\nconst OTHER: u32 = 7;\n";
        let lexed = lex(src);
        let mut report = SchemaReport::default();
        collect_into(&lexed, "x.rs", "runtime", &mut report);
        assert_eq!(report.version_consts.len(), 1);
        assert_eq!(
            report.version_consts[0].key,
            "runtime/SNAPSHOT_FORMAT_VERSION"
        );
        assert_eq!(report.version_consts[0].value, 3);
    }
}
