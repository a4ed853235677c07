//! Property-based tests for the timeline algebra, prefixes, and the trie.
//!
//! These invariants are what the whole evaluation methodology leans on:
//! if interval-set algebra is wrong, every confusion-matrix cell is wrong.

use outage_check::prelude::*;
use outage_types::rng::SmallRng;
use outage_types::{Interval, IntervalSet, ParsePrefixError, Prefix, PrefixTrie, UnixTime};
use std::collections::BTreeMap;
use std::net::{Ipv4Addr, Ipv6Addr};

const HORIZON: u64 = 10_000;

fn arb_interval() -> impl Gen<Value = Interval> {
    (0..HORIZON, 0..HORIZON).prop_map(|(a, b)| Interval::from_secs(a.min(b), a.max(b)))
}

fn arb_set() -> impl Gen<Value = IntervalSet> {
    vec(arb_interval(), 0..12).prop_map(IntervalSet::from_intervals)
}

/// Oracle: membership test per second over the horizon.
fn covered(s: &IntervalSet, t: u64) -> bool {
    s.contains(UnixTime(t))
}

property! {
    #[test]
    fn normalization_invariants(s in arb_set()) {
        // Sorted, disjoint, non-touching, non-empty members.
        let ivs = s.intervals();
        for iv in ivs {
            prop_assert!(!iv.is_empty());
        }
        for w in ivs.windows(2) {
            prop_assert!(w[0].end < w[1].start, "members must not touch: {} vs {}", w[0], w[1]);
        }
        let total: u64 = ivs.iter().map(|iv| iv.duration()).sum();
        prop_assert_eq!(total, s.total());
    }

    #[test]
    fn union_matches_pointwise_oracle(a in arb_set(), b in arb_set()) {
        let u = a.union(&b);
        // sample a grid of points, including endpoints
        for t in (0..HORIZON).step_by(137) {
            prop_assert_eq!(covered(&u, t), covered(&a, t) || covered(&b, t), "t={}", t);
        }
    }

    #[test]
    fn intersect_matches_pointwise_oracle(a in arb_set(), b in arb_set()) {
        let i = a.intersect(&b);
        for t in (0..HORIZON).step_by(137) {
            prop_assert_eq!(covered(&i, t), covered(&a, t) && covered(&b, t), "t={}", t);
        }
    }

    #[test]
    fn subtract_matches_pointwise_oracle(a in arb_set(), b in arb_set()) {
        let d = a.subtract(&b);
        for t in (0..HORIZON).step_by(137) {
            prop_assert_eq!(covered(&d, t), covered(&a, t) && !covered(&b, t), "t={}", t);
        }
    }

    #[test]
    fn inclusion_exclusion(a in arb_set(), b in arb_set()) {
        // |A ∪ B| = |A| + |B| − |A ∩ B|
        prop_assert_eq!(
            a.union(&b).total() + a.intersect(&b).total(),
            a.total() + b.total()
        );
    }

    #[test]
    fn complement_partitions_window(s in arb_set()) {
        let window = Interval::from_secs(0, HORIZON);
        let clipped = s.clip(window);
        let comp = s.complement_within(window);
        prop_assert_eq!(clipped.total() + comp.total(), HORIZON);
        prop_assert_eq!(clipped.overlap_secs(&comp), 0);
    }

    #[test]
    fn insert_equals_union_of_singleton(s in arb_set(), iv in arb_interval()) {
        let mut inserted = s.clone();
        inserted.insert(iv);
        prop_assert_eq!(inserted, s.union(&IntervalSet::singleton(iv)));
    }

    #[test]
    fn subtract_then_add_back_is_union_superset(a in arb_set(), b in arb_set()) {
        // (A − B) ∪ (A ∩ B) = A
        let reassembled = a.subtract(&b).union(&a.intersect(&b));
        prop_assert_eq!(reassembled, a.clone());
    }
}

fn arb_v4_prefix() -> impl Gen<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Prefix::v4_raw(addr, len))
}

property! {
    #[test]
    fn prefix_parse_display_roundtrip(p in arb_v4_prefix()) {
        let s = p.to_string();
        let back: Prefix = s.parse().unwrap();
        prop_assert_eq!(p, back);
    }

    #[test]
    fn parent_contains_child(p in arb_v4_prefix()) {
        if let Some(parent) = p.parent() {
            prop_assert!(parent.contains(&p));
            prop_assert_eq!(parent.len(), p.len() - 1);
        }
        if let Some((lo, hi)) = p.children() {
            prop_assert!(p.contains(&lo));
            prop_assert!(p.contains(&hi));
            prop_assert!(!lo.contains(&hi));
            prop_assert!(!hi.contains(&lo));
        }
    }

    #[test]
    fn supernet_chain_is_monotone(p in arb_v4_prefix(), target in 0u8..=32) {
        if let Some(sup) = p.supernet(target) {
            prop_assert!(sup.contains(&p));
            prop_assert_eq!(sup.len(), target);
        } else {
            prop_assert!(target > p.len());
        }
    }

    #[test]
    fn trie_agrees_with_btreemap(entries in vec((any::<u32>(), 8u8..=28, any::<u16>()), 0..40)) {
        let mut trie = PrefixTrie::new();
        let mut map: BTreeMap<Prefix, u16> = BTreeMap::new();
        for (addr, len, v) in entries {
            let p = Prefix::v4_raw(addr, len);
            trie.insert(p, v);
            map.insert(p, v);
        }
        prop_assert_eq!(trie.len(), map.len());
        for (k, v) in &map {
            prop_assert_eq!(trie.get(k), Some(v));
        }
        // longest_match agrees with a brute-force scan
        for k in map.keys() {
            let brute = map
                .iter()
                .filter(|(cand, _)| cand.contains(k))
                .max_by_key(|(cand, _)| cand.len());
            let got = trie.longest_match(k);
            prop_assert_eq!(got.map(|(p, v)| (p, *v)), brute.map(|(p, v)| (*p, *v)));
        }
    }

    #[test]
    fn trie_remove_restores_absence(entries in vec((any::<u32>(), 8u8..=28), 1..30)) {
        let mut trie = PrefixTrie::new();
        let prefixes: Vec<Prefix> = entries.iter().map(|&(a, l)| Prefix::v4_raw(a, l)).collect();
        for (i, p) in prefixes.iter().enumerate() {
            trie.insert(*p, i);
        }
        let n = trie.len();
        // remove them all; trie must end empty regardless of duplicates
        let mut removed = 0;
        for p in &prefixes {
            if trie.remove(p).is_some() {
                removed += 1;
            }
        }
        prop_assert_eq!(removed, n);
        prop_assert!(trie.is_empty());
    }
}

/// `Prefix::from_str` as it reads with std's address parsers: the
/// reference the byte-level IPv4 reader must agree with, errors
/// included.
fn std_prefix(s: &str) -> Result<Prefix, ParsePrefixError> {
    let (ip, len) = s
        .split_once('/')
        .ok_or_else(|| ParsePrefixError(format!("{s}: missing '/'")))?;
    let len: u8 = len
        .parse()
        .map_err(|_| ParsePrefixError(format!("{s}: bad length")))?;
    if let Ok(v4) = ip.parse::<Ipv4Addr>() {
        if len > 32 {
            return Err(ParsePrefixError(format!("{s}: /{len} > 32")));
        }
        return Ok(Prefix::v4(v4, len));
    }
    if let Ok(v6) = ip.parse::<Ipv6Addr>() {
        if len > 128 {
            return Err(ParsePrefixError(format!("{s}: /{len} > 128")));
        }
        return Ok(Prefix::v6(v6, len));
    }
    Err(ParsePrefixError(format!("{s}: unparseable address")))
}

/// Prefix-like text: a rendered IPv4 or IPv6 address (or random
/// characters), a length that may be out of range or missing, then up
/// to three single-byte edits from an alphabet that reaches every
/// branch of the grammar.
fn prefix_text(seed: u64) -> String {
    const ALPHABET: &[u8] = b"0123456789.:/+- af";
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut s = match rng.gen_range(0..3u8) {
        0 => Ipv4Addr::from(rng.next_u32()).to_string(),
        1 => Ipv6Addr::from(u128::from(rng.next_u64()) << rng.gen_range(0..65u32)).to_string(),
        _ => (0..rng.gen_range(0..16usize))
            .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char)
            .collect(),
    };
    if rng.gen_bool(0.9) {
        s.push_str(&format!("/{}", rng.gen_range(0..140u32)));
    }
    let mut bytes = s.into_bytes();
    for _ in 0..rng.gen_range(0..4u8) {
        let c = ALPHABET[rng.gen_range(0..ALPHABET.len())];
        let at = rng.gen_range(0..=bytes.len());
        match rng.gen_range(0..3u8) {
            0 => bytes.insert(at, c),
            1 if at < bytes.len() => bytes[at] = c,
            _ if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => {}
        }
    }
    String::from_utf8(bytes).expect("ASCII edits")
}

property! {
    #![cases(4096)]

    #[test]
    fn prefix_from_str_agrees_with_std_parsers(seed in any::<u64>()) {
        let s = prefix_text(seed);
        prop_assert_eq!(s.parse::<Prefix>(), std_prefix(&s), "{:?}", s);
    }
}
