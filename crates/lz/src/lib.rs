//! Lempel-Ziv compression, the paper's compressed-XML baseline.
//!
//! §IV-B.e: "Compression is achieved using Lempel-Ziv encoding. …
//! Compressed XML is mostly the same size as, and sometimes smaller than
//! the equivalent PBIO data. This is in part due to the highly structured
//! nature of the data."
//!
//! This is an LZSS variant: a sliding window (32 KiB) with hash-chain
//! match search, emitting token groups of eight items, each either a
//! literal byte or a `(distance, length)` back-reference, selected by a
//! flag byte. Tag-heavy XML — where the same `<element>` names repeat for
//! every array item and at every struct level — compresses by 3-4x, which
//! is exactly the regime the paper's measurements sit in.

pub mod huffman;

const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 258;
const HASH_BITS: usize = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// How many chain links to follow per position (compression effort knob).
const MAX_CHAIN: usize = 32;

/// Error returned when decompressing malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LzError(pub &'static str);

impl std::fmt::Display for LzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lz decode error: {}", self.0)
    }
}

impl std::error::Error for LzError {}

fn hash(data: &[u8]) -> usize {
    let v = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize & (HASH_SIZE - 1)
}

/// Compresses `input`.
///
/// Layout: `[original length u32 LE][mode u8][body]` where mode 0 is a raw
/// LZSS token stream and mode 1 is the same stream passed through the
/// Huffman entropy stage (whichever is smaller).
pub fn compress(input: &[u8]) -> Vec<u8> {
    let tokens = lzss_tokens(input);
    let mut out = Vec::with_capacity(tokens.len() / 2 + 16);
    out.extend_from_slice(&(input.len() as u32).to_le_bytes());
    match huffman::encode(&tokens) {
        Some(h) if h.len() + 4 < tokens.len() => {
            out.push(1);
            out.extend_from_slice(&(tokens.len() as u32).to_le_bytes());
            out.extend_from_slice(&h);
        }
        _ => {
            out.push(0);
            out.extend_from_slice(&tokens);
        }
    }
    out
}

/// Length of the common prefix of `a` and `b`, capped at `limit`,
/// compared a u64 word at a time: load 8 bytes from each side, XOR, and
/// `trailing_zeros` locates the first differing byte — 8× fewer
/// comparisons than the old byte loop on the long matches that dominate
/// compressible payloads.
fn match_len(a: &[u8], b: &[u8], limit: usize) -> usize {
    let n = limit.min(a.len()).min(b.len());
    let mut l = 0;
    while l + 8 <= n {
        let wa = u64::from_le_bytes(a[l..l + 8].try_into().expect("8-byte window"));
        let wb = u64::from_le_bytes(b[l..l + 8].try_into().expect("8-byte window"));
        let x = wa ^ wb;
        if x != 0 {
            return l + (x.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < n && a[l] == b[l] {
        l += 1;
    }
    l
}

/// Produces the raw LZSS token stream for `input` (no headers).
#[allow(unused_assignments)] // the flush macro resets state that the final call leaves unread
fn lzss_tokens(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);

    // Hash table of most-recent position per hash, with chained previous
    // positions (classic deflate-style matcher).
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut prev = vec![usize::MAX; input.len().max(1)];

    let mut i = 0;
    // Token buffer: up to 8 tokens per flag byte.
    let mut flags = 0u8;
    let mut nflags = 0;
    let mut group: Vec<u8> = Vec::with_capacity(8 * 3);

    macro_rules! flush_group {
        () => {
            if nflags > 0 {
                out.push(flags);
                out.extend_from_slice(&group);
                flags = 0;
                nflags = 0;
                group.clear();
            }
        };
    }

    while i < input.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= input.len() {
            let h = hash(&input[i..]);
            let mut cand = head[h];
            let mut chain = 0;
            while cand != usize::MAX && i - cand <= WINDOW && chain < MAX_CHAIN {
                // Quick reject on the byte just past the current best.
                if best_len == 0 || input.get(cand + best_len) == input.get(i + best_len) {
                    let limit = (input.len() - i).min(MAX_MATCH);
                    let l = match_len(&input[cand..], &input[i..], limit);
                    if l > best_len {
                        best_len = l;
                        best_dist = i - cand;
                        if l >= MAX_MATCH {
                            break;
                        }
                    }
                }
                cand = prev[cand];
                chain += 1;
            }
            prev[i] = head[h];
            head[h] = i;
        }

        if best_len >= MIN_MATCH {
            // Back-reference token: flag bit 1, dist u16, len-MIN_MATCH u8.
            flags |= 1 << nflags;
            group.extend_from_slice(&(best_dist as u16).to_le_bytes());
            group.push((best_len - MIN_MATCH) as u8);
            // Insert hash entries for the skipped positions so later
            // matches can reference inside this run.
            let end = i + best_len;
            let mut j = i + 1;
            while j < end && j + MIN_MATCH <= input.len() {
                let h = hash(&input[j..]);
                prev[j] = head[h];
                head[h] = j;
                j += 1;
            }
            i = end;
        } else {
            group.push(input[i]);
            i += 1;
        }
        nflags += 1;
        if nflags == 8 {
            flush_group!();
        }
    }
    flush_group!();
    out
}

/// Decompresses a [`compress`]-produced buffer of at most `max_out`
/// original bytes.
///
/// The size header is checked against `max_out` before any buffer is
/// reserved, so a few hostile bytes cannot claim gigabytes; a stream that
/// would expand past its declared size is rejected as it grows.
pub fn decompress(input: &[u8], max_out: usize) -> Result<Vec<u8>, LzError> {
    if input.len() < 5 {
        return Err(LzError("missing header"));
    }
    let expect = u32::from_le_bytes(input[..4].try_into().expect("len checked")) as usize;
    if expect > max_out {
        return Err(LzError("declared size exceeds the output limit"));
    }
    match input[4] {
        0 => decode_tokens(&input[5..], expect),
        1 => {
            if input.len() < 9 {
                return Err(LzError("missing huffman header"));
            }
            let toklen = u32::from_le_bytes(input[5..9].try_into().expect("len checked")) as usize;
            // An all-literal stream is the longest one that expands to
            // `expect` bytes: one flag byte per eight literals.
            if toklen > expect + expect.div_ceil(8) {
                return Err(LzError("token stream longer than its output"));
            }
            let tokens =
                huffman::decode(&input[9..], toklen).ok_or(LzError("bad huffman stream"))?;
            decode_tokens(&tokens, expect)
        }
        _ => Err(LzError("unknown mode byte")),
    }
}

/// Expands an LZSS token stream to exactly `expect` bytes.
fn decode_tokens(input: &[u8], expect: usize) -> Result<Vec<u8>, LzError> {
    let mut out = Vec::with_capacity(expect);
    let mut i = 0;
    while out.len() < expect {
        if i >= input.len() {
            return Err(LzError("truncated stream"));
        }
        let flags = input[i];
        i += 1;
        for bit in 0..8 {
            if out.len() >= expect {
                break;
            }
            if flags & (1 << bit) != 0 {
                if i + 3 > input.len() {
                    return Err(LzError("truncated back-reference"));
                }
                let dist = u16::from_le_bytes([input[i], input[i + 1]]) as usize;
                let len = input[i + 2] as usize + MIN_MATCH;
                i += 3;
                if dist == 0 || dist > out.len() {
                    return Err(LzError("back-reference outside window"));
                }
                if out.len() + len > expect {
                    return Err(LzError("length mismatch"));
                }
                let start = out.len() - dist;
                // Overlapping copies are the normal RLE case.
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            } else {
                if i >= input.len() {
                    return Err(LzError("truncated literal"));
                }
                out.push(input[i]);
                i += 1;
            }
        }
    }
    Ok(out)
}

/// Compresses without the Huffman entropy stage (raw LZSS tokens) — the
/// 2004-era "plain Lempel-Ziv" baseline, kept for ablation benchmarks.
/// Output decompresses with [`decompress`].
pub fn compress_lzss_only(input: &[u8]) -> Vec<u8> {
    let tokens = lzss_tokens(input);
    let mut out = Vec::with_capacity(tokens.len() + 8);
    out.extend_from_slice(&(input.len() as u32).to_le_bytes());
    out.push(0);
    out.extend_from_slice(&tokens);
    out
}

/// Compression ratio (original/compressed) of a buffer — diagnostic used
/// by the benchmark tables.
pub fn ratio(input: &[u8]) -> f64 {
    if input.is_empty() {
        return 1.0;
    }
    input.len() as f64 / compress(input).len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let c = compress(data);
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abc");
    }

    #[test]
    fn match_len_agrees_with_byte_scan_at_word_boundaries() {
        let reference = |a: &[u8], b: &[u8], limit: usize| {
            let n = limit.min(a.len()).min(b.len());
            (0..n).take_while(|&l| a[l] == b[l]).count()
        };
        let base: Vec<u8> = (0..64u8).collect();
        for diff_at in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 63] {
            let mut other = base.clone();
            other[diff_at] ^= 0xFF;
            for limit in [0usize, 1, 7, 8, 9, 16, 64, 258] {
                assert_eq!(
                    match_len(&base, &other, limit),
                    reference(&base, &other, limit),
                    "diff_at={diff_at} limit={limit}"
                );
            }
        }
        // Fully equal slices cap at the limit / shorter slice.
        assert_eq!(match_len(&base, &base, 258), 64);
        assert_eq!(match_len(&base, &base[..10], 258), 10);
        assert_eq!(match_len(&base, &base, 5), 5);
    }

    #[test]
    fn repeated_data_compresses_well() {
        let data = b"<item>42</item>".repeat(500);
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 5,
            "compressed {} of {}",
            c.len(),
            data.len()
        );
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn xml_like_data_reaches_paper_ratios() {
        // Tag-per-element XML, the paper's array case: expect >= 3x.
        let mut xml = String::from("<array>");
        let mut x = 1u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            xml.push_str(&format!("<int>{}</int>", x % 1_000_000));
        }
        xml.push_str("</array>");
        let r = ratio(xml.as_bytes());
        assert!(r > 3.0, "ratio {r}");
        round_trip(xml.as_bytes());
    }

    #[test]
    fn incompressible_data_survives() {
        // LCG noise: little redundancy, must still round-trip.
        let mut x = 12345u64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        round_trip(&data);
    }

    #[test]
    fn overlapping_matches_rle() {
        round_trip(&[7u8; 100_000]);
        let mut v = Vec::new();
        for i in 0..50 {
            v.extend(std::iter::repeat_n(i as u8, i + 1));
        }
        round_trip(&v);
    }

    #[test]
    fn corrupt_streams_rejected_not_panicking() {
        let c = compress(b"hello hello hello hello");
        assert!(decompress(&c[..2], 64).is_err());
        assert!(decompress(&c[..c.len() - 1], 64).is_err());
        let mut bad = c.clone();
        // Claim a huge original length.
        bad[0] = 0xff;
        bad[1] = 0xff;
        assert!(decompress(&bad, usize::MAX).is_err());
        // Corrupt a flag byte so a literal turns into a back-reference.
        if bad.len() > 5 {
            let mut b2 = c.clone();
            b2[4] = 0xff;
            let _ = decompress(&b2, 64); // any result, but no panic
        }
    }

    #[test]
    fn ratio_of_empty_is_one() {
        assert_eq!(ratio(b""), 1.0);
    }

    #[test]
    fn lzss_only_round_trips_and_is_weaker() {
        let data = b"<item>42</item>".repeat(500);
        let raw = compress_lzss_only(&data);
        assert_eq!(decompress(&raw, data.len()).unwrap(), data);
        let full = compress(&data);
        assert!(
            full.len() <= raw.len(),
            "huffman stage must not hurt: {} vs {}",
            full.len(),
            raw.len()
        );
    }
}
