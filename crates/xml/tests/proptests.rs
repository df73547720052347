//! Randomized-property tests: writer output always reparses to the same
//! structure. Seeded generation keeps every case reproducible.

use sbq_runtime::SmallRng;
use sbq_xml::{escape_attr, escape_text, unescape, Event, PullParser, XmlWriter};

const CASES: u64 = 256;

/// A random string over printable ASCII plus XML-hostile characters and
/// some multi-byte code points.
fn arb_string(rng: &mut SmallRng, max_len: u64) -> String {
    let hostile = ['<', '>', '&', '\'', '"', 'é', 'λ', '中', '\u{1F600}'];
    let n = rng.gen_below(max_len + 1);
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.2) {
                hostile[rng.gen_below(hostile.len() as u64) as usize]
            } else {
                (b' ' + rng.gen_below(95) as u8) as char
            }
        })
        .collect()
}

fn arb_name(rng: &mut SmallRng) -> String {
    let first = (b'a' + rng.gen_below(26) as u8) as char;
    let rest: String = (0..rng.gen_below(7))
        .map(|_| {
            let set = b"abcdefghijklmnopqrstuvwxyz0123456789";
            set[rng.gen_below(set.len() as u64) as usize] as char
        })
        .collect();
    format!("{first}{rest}")
}

#[test]
fn escape_text_round_trips() {
    let mut rng = SmallRng::seed_from_u64(0x0a11_0001);
    for _ in 0..CASES {
        let s = arb_string(&mut rng, 64);
        assert_eq!(unescape(&escape_text(&s)), s, "{s:?}");
    }
}

#[test]
fn escape_attr_round_trips() {
    let mut rng = SmallRng::seed_from_u64(0x0a11_0002);
    for _ in 0..CASES {
        let s = arb_string(&mut rng, 64);
        assert_eq!(unescape(&escape_attr(&s)), s, "{s:?}");
    }
}

#[test]
fn written_tree_reparses() {
    let mut rng = SmallRng::seed_from_u64(0x0a11_0003);
    for _ in 0..CASES {
        let names: Vec<String> = (0..1 + rng.gen_below(7))
            .map(|_| arb_name(&mut rng))
            .collect();
        let texts: Vec<String> = (0..1 + rng.gen_below(7))
            .map(|_| {
                let n = rng.gen_below(13);
                (0..n)
                    .map(|_| (b' ' + rng.gen_below(95) as u8) as char)
                    .collect()
            })
            .collect();
        // Build a nested document name[0] > name[1] > … with text leaves.
        let mut w = XmlWriter::new();
        for n in &names {
            w.start(n);
        }
        for t in &texts {
            if !t.trim().is_empty() {
                w.leaf("LEAF", t);
            }
        }
        let doc = w.finish();
        let mut p = PullParser::new(&doc);
        let mut starts = Vec::new();
        let mut leaf_texts = Vec::new();
        loop {
            match p.next().unwrap() {
                Event::Start { name, .. } if name != "LEAF" => starts.push(name),
                Event::Text(t) => leaf_texts.push(t),
                Event::Eof => break,
                _ => {}
            }
        }
        assert_eq!(starts, names);
        let expected: Vec<String> = texts
            .iter()
            .filter(|t| !t.trim().is_empty())
            .cloned()
            .collect();
        assert_eq!(leaf_texts, expected);
    }
}

#[test]
fn attributes_round_trip() {
    let mut rng = SmallRng::seed_from_u64(0x0a11_0004);
    for _ in 0..CASES {
        let vals: Vec<String> = (0..rng.gen_below(6))
            .map(|_| {
                let n = rng.gen_below(17);
                (0..n)
                    .map(|_| (b' ' + rng.gen_below(95) as u8) as char)
                    .collect()
            })
            .collect();
        let mut w = XmlWriter::new();
        let attrs: Vec<(String, String)> = vals
            .iter()
            .enumerate()
            .map(|(i, v)| (format!("a{i}"), v.clone()))
            .collect();
        let borrowed: Vec<(&str, &str)> = attrs
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        w.start_with("e", &borrowed);
        let doc = w.finish();
        let mut p = PullParser::new(&doc);
        match p.next().unwrap() {
            Event::Start { attrs: parsed, .. } => {
                let parsed: Vec<(String, String)> = parsed
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v.into_owned()))
                    .collect();
                assert_eq!(parsed, attrs)
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
}
