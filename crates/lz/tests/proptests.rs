//! Randomized-property tests: compression is lossless on arbitrary
//! inputs. Seeded generation keeps every case reproducible.

use sbq_lz::{compress, decompress};
use sbq_runtime::SmallRng;

const CASES: u64 = 128;

#[test]
fn round_trip_arbitrary_bytes() {
    let mut rng = SmallRng::seed_from_u64(0x12_0001);
    for _ in 0..CASES {
        let n = rng.gen_below(4096) as usize;
        let data: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
        assert_eq!(decompress(&compress(&data), data.len()).unwrap(), data);
    }
}

#[test]
fn round_trip_repetitive() {
    let mut rng = SmallRng::seed_from_u64(0x12_0002);
    for _ in 0..CASES {
        let byte = rng.next_u64() as u8;
        let n = rng.gen_below(20_000) as usize;
        let data = vec![byte; n];
        assert_eq!(decompress(&compress(&data), data.len()).unwrap(), data);
    }
}

#[test]
fn round_trip_textish() {
    let mut rng = SmallRng::seed_from_u64(0x12_0003);
    for _ in 0..CASES {
        let n = rng.gen_below(2000);
        let s: String = (0..n)
            .map(|_| (b' ' + rng.gen_below(95) as u8) as char)
            .collect();
        let doubled = format!("{s}{s}{s}");
        assert_eq!(
            decompress(&compress(doubled.as_bytes()), doubled.len()).unwrap(),
            doubled.as_bytes()
        );
    }
}

#[test]
fn decompress_never_panics() {
    let mut rng = SmallRng::seed_from_u64(0x12_0004);
    let mut headers = SmallRng::seed_from_u64(0x12_0005);
    for _ in 0..CASES {
        let n = rng.gen_below(512) as usize;
        let mut data: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
        let _ = decompress(&data, usize::MAX);
        // The same bytes under a small declared size, a known mode and a
        // bound, so every case reaches the token and Huffman decoders.
        if n >= 5 {
            data[..4].copy_from_slice(&(headers.gen_below(4096) as u32).to_le_bytes());
            data[4] = headers.gen_below(2) as u8;
            let _ = decompress(&data, 4096);
        }
    }
}
