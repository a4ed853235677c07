//! Line-oriented text formats for observations and events.
//!
//! Deliberately trivial, dependency-free, and greppable:
//!
//! * **Observation lines**: `<secs> <block>` — e.g. `8632 192.0.2.0/24`
//! * **Event lines**: `<prefix> <start> <end> <confidence> <detector>` —
//!   e.g. `192.0.2.0/24 30010 37200 0.990 passive-bayes`
//! * **Interval lines**: `<start> <end>` — e.g. `43200 45180` (quarantined
//!   or otherwise excluded spans)
//!
//! Blank lines and lines starting with `#` are ignored on input, so
//! files can carry headers and comments.

use outage_types::{DetectorId, Interval, IntervalSet, Observation, OutageEvent, Prefix, UnixTime};
use std::fmt::Write as _;

/// Error with line number context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn skippable(line: &str) -> bool {
    let t = line.trim();
    t.is_empty() || t.starts_with('#')
}

/// Render one observation line.
pub fn observation_line(obs: &Observation) -> String {
    format!("{} {}", obs.time.secs(), obs.block)
}

/// Parse one observation line.
pub fn parse_observation(line: &str, lineno: usize) -> Result<Observation, ParseError> {
    let mut parts = line.split_whitespace();
    let (Some(t), Some(b), None) = (parts.next(), parts.next(), parts.next()) else {
        return Err(ParseError {
            line: lineno,
            message: format!("expected '<secs> <block>', got {line:?}"),
        });
    };
    let time: u64 = t.parse().map_err(|e| ParseError {
        line: lineno,
        message: format!("bad timestamp {t:?}: {e}"),
    })?;
    let block: Prefix = b.parse().map_err(|e| ParseError {
        line: lineno,
        message: format!("bad block {b:?}: {e}"),
    })?;
    Ok(Observation::new(UnixTime(time), block))
}

/// Parse a whole observation document (skipping comments/blanks).
///
/// One forward pass over the bytes. A line in the shape
/// [`render_observations`] writes — ASCII digits, one space, a block of
/// printable ASCII, then `\n` or end of input — is decoded in place.
/// Every other line (comments, blanks, `\r\n` endings, tabs, runs of
/// spaces, signs, non-ASCII whitespace, overflow, anything malformed)
/// goes to [`parse_observation`] exactly as `str::lines` would hand it
/// over, so the accepted language, the values and each error's line
/// number and message are the line-by-line parser's.
pub fn parse_observations(input: &str) -> Result<Vec<Observation>, ParseError> {
    let bytes = input.as_bytes();
    let mut out = Vec::with_capacity(bytes.iter().filter(|&&b| b == b'\n').count() + 1);
    let mut pos = 0;
    let mut lineno = 0;
    while pos < bytes.len() {
        lineno += 1;
        if let Some((obs, next)) = canonical_observation(input, pos) {
            out.push(obs);
            pos = next;
            continue;
        }
        let rest = &input[pos..];
        let (line, next) = match rest.split_once('\n') {
            Some((l, _)) => (l.strip_suffix('\r').unwrap_or(l), pos + l.len() + 1),
            None => (rest, bytes.len()),
        };
        if !skippable(line) {
            out.push(parse_observation(line, lineno)?);
        }
        pos = next;
    }
    Ok(out)
}

/// Decode the line at byte `pos` if it is canonical (see
/// [`parse_observations`]), returning the observation and the offset of
/// the next line; `None` sends the line to the general path. A block
/// token holds no whitespace, so the general path would split the line
/// into the same two fields; an overflowing timestamp or a token
/// `Prefix::from_str` rejects is left to it for the error.
fn canonical_observation(input: &str, pos: usize) -> Option<(Observation, usize)> {
    let bytes = input.as_bytes();
    let mut i = pos;
    let mut secs = 0u64;
    while let Some(&b) = bytes.get(i).filter(|b| b.is_ascii_digit()) {
        secs = secs.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
        i += 1;
    }
    if i == pos || bytes.get(i) != Some(&b' ') {
        return None;
    }
    let start = i + 1;
    let end = bytes[start..]
        .iter()
        .position(|&b| !b.is_ascii_graphic())
        .map_or(bytes.len(), |n| start + n);
    if end < bytes.len() && bytes[end] != b'\n' {
        return None;
    }
    let block: Prefix = input.get(start..end)?.parse().ok()?;
    Some((Observation::new(UnixTime(secs), block), end + 1))
}

/// Render a whole observation document.
pub fn render_observations(obs: &[Observation]) -> String {
    let mut out = String::with_capacity(obs.len() * 24);
    out.push_str("# <secs> <block>\n");
    for o in obs {
        let _ = writeln!(out, "{} {}", o.time.secs(), o.block);
    }
    out
}

/// Render one event line.
pub fn event_line(ev: &OutageEvent) -> String {
    format!(
        "{} {} {} {:.3} {}",
        ev.prefix,
        ev.interval.start.secs(),
        ev.interval.end.secs(),
        ev.confidence,
        ev.detector
    )
}

fn detector_from_str(s: &str) -> Option<DetectorId> {
    Some(match s {
        "passive-bayes" => DetectorId::PassiveBayes,
        "trinocular" => DetectorId::Trinocular,
        "chocolatine" => DetectorId::Chocolatine,
        "ripe-atlas" => DetectorId::RipeAtlas,
        "ground-truth" => DetectorId::GroundTruth,
        _ => return None,
    })
}

/// Parse one event line.
pub fn parse_event(line: &str, lineno: usize) -> Result<OutageEvent, ParseError> {
    let parts: Vec<&str> = line.split_whitespace().collect();
    if parts.len() != 5 {
        return Err(ParseError {
            line: lineno,
            message: format!(
                "expected '<prefix> <start> <end> <confidence> <detector>', got {line:?}"
            ),
        });
    }
    let err = |message: String| ParseError {
        line: lineno,
        message,
    };
    let prefix: Prefix = parts[0]
        .parse()
        .map_err(|e| err(format!("bad prefix: {e}")))?;
    let start: u64 = parts[1]
        .parse()
        .map_err(|e| err(format!("bad start: {e}")))?;
    let end: u64 = parts[2].parse().map_err(|e| err(format!("bad end: {e}")))?;
    if end < start {
        return Err(err(format!("end {end} before start {start}")));
    }
    let confidence: f64 = parts[3]
        .parse()
        .map_err(|e| err(format!("bad confidence: {e}")))?;
    if !(0.0..=1.0).contains(&confidence) {
        return Err(err(format!("confidence {confidence} outside [0,1]")));
    }
    let detector = detector_from_str(parts[4])
        .ok_or_else(|| err(format!("unknown detector {:?}", parts[4])))?;
    Ok(OutageEvent {
        prefix,
        interval: Interval::from_secs(start, end),
        confidence,
        detector,
    })
}

/// Parse a whole event document.
pub fn parse_events(input: &str) -> Result<Vec<OutageEvent>, ParseError> {
    input
        .lines()
        .enumerate()
        .filter(|(_, l)| !skippable(l))
        .map(|(i, l)| parse_event(l, i + 1))
        .collect()
}

/// Render a whole event document.
pub fn render_events(events: &[OutageEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 48);
    out.push_str("# <prefix> <start> <end> <confidence> <detector>\n");
    for ev in events {
        let _ = writeln!(out, "{}", event_line(ev));
    }
    out
}

/// Render an interval set, one `<start> <end>` line per interval.
pub fn render_intervals(set: &IntervalSet) -> String {
    let mut out = String::from("# <start> <end>\n");
    for iv in set.iter() {
        let _ = writeln!(out, "{} {}", iv.start.secs(), iv.end.secs());
    }
    out
}

/// Parse one interval line.
pub fn parse_interval(line: &str, lineno: usize) -> Result<Interval, ParseError> {
    let mut parts = line.split_whitespace();
    let (Some(s), Some(e), None) = (parts.next(), parts.next(), parts.next()) else {
        return Err(ParseError {
            line: lineno,
            message: format!("expected '<start> <end>', got {line:?}"),
        });
    };
    let err = |message: String| ParseError {
        line: lineno,
        message,
    };
    let start: u64 = s
        .parse()
        .map_err(|pe| err(format!("bad start {s:?}: {pe}")))?;
    let end: u64 = e
        .parse()
        .map_err(|pe| err(format!("bad end {e:?}: {pe}")))?;
    if end < start {
        return Err(err(format!("end {end} before start {start}")));
    }
    Ok(Interval::from_secs(start, end))
}

/// Parse a whole interval document into a (merged) set.
pub fn parse_intervals(input: &str) -> Result<IntervalSet, ParseError> {
    let mut set = IntervalSet::new();
    for (i, l) in input.lines().enumerate() {
        if skippable(l) {
            continue;
        }
        set.insert(parse_interval(l, i + 1)?);
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use outage_types::rng::SmallRng;

    #[test]
    fn observation_roundtrip() {
        let mut obs = vec![
            Observation::new(UnixTime(0), "10.0.0.0/24".parse().unwrap()),
            Observation::new(UnixTime(86_399), "2001:db8::/48".parse().unwrap()),
        ];
        // Random v4 and v6 blocks at every length, timestamps across the
        // whole u64 range.
        let mut rng = SmallRng::seed_from_u64(14);
        for len in 0..=128u8 {
            for _ in 0..8 {
                let t = UnixTime(match rng.gen_range(0..3u8) {
                    0 => rng.gen_range(0..100_000u64),
                    1 => rng.next_u64(),
                    _ => u64::MAX - rng.gen_range(0..3u64),
                });
                let v6 = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
                obs.push(Observation::new(t, Prefix::v6_raw(v6, len)));
                if len <= 32 {
                    obs.push(Observation::new(t, Prefix::v4_raw(rng.next_u32(), len)));
                }
            }
        }
        let doc = render_observations(&obs);
        assert_eq!(parse_observations(&doc).unwrap(), obs);
        assert_eq!(parse_observations(doc.trim_end()).unwrap(), obs);
    }

    /// The line-by-line parser the one-pass [`parse_observations`] must
    /// agree with on every document.
    fn line_by_line(input: &str) -> Result<Vec<Observation>, ParseError> {
        input
            .lines()
            .enumerate()
            .filter(|(_, l)| !skippable(l))
            .map(|(i, l)| parse_observation(l, i + 1))
            .collect()
    }

    /// Every truncation and single-byte replacement of `seed`, plus a
    /// U+00A0 (non-ASCII whitespace) inserted at every position.
    fn mutants(seed: &str) -> Vec<String> {
        const REPLACEMENTS: &[u8] = b"0123456789.:/ \t\r\n+#a";
        let mut out: Vec<String> = (0..=seed.len()).map(|k| seed[..k].to_string()).collect();
        for at in 0..seed.len() {
            for &c in REPLACEMENTS {
                let mut bytes = seed.as_bytes().to_vec();
                bytes[at] = c;
                out.push(String::from_utf8(bytes).expect("ASCII seed"));
            }
        }
        for at in 0..=seed.len() {
            out.push(format!("{}\u{a0}{}", &seed[..at], &seed[at..]));
        }
        out
    }

    /// Each mutant as a middle line, as a last line with and without a
    /// final newline, and as a whole document.
    fn documents(mutant: &str) -> [String; 4] {
        [
            format!("5 10.0.0.0/24\n{mutant}\n# tail\n6 10.0.1.0/24\n"),
            format!("# head\n{mutant}\n"),
            format!("5 10.0.0.0/24\r\n{mutant}"),
            mutant.to_string(),
        ]
    }

    #[test]
    fn one_pass_parse_equals_line_by_line_under_mutation() {
        let seeds = [
            "0 0.0.0.0/0",
            "18446744073709551615 255.255.255.255/32",
            "86399 192.0.2.0/24",
            "7 2001:db8::/48",
            "42 ::/0",
            "18446744073709551615 ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128",
            "18446744073709551616 10.0.0.0/8",
        ];
        let mut accepted = 0;
        for seed in seeds {
            for mutant in mutants(seed) {
                for doc in documents(&mutant) {
                    let got = parse_observations(&doc);
                    assert_eq!(got, line_by_line(&doc), "{doc:?}");
                    accepted += usize::from(got.is_ok());
                }
            }
        }
        // The sweep reaches both sides of the grammar.
        assert!(accepted > 1_000, "only {accepted} documents parsed");
    }

    #[test]
    fn event_and_interval_parsers_survive_mutation() {
        let seeds = [
            "192.0.2.0/24 30010 37200 0.990 passive-bayes",
            "2001:db8::/48 0 18446744073709551615 1.000 ground-truth",
            "43200 45180",
            "0 18446744073709551615",
        ];
        for seed in seeds {
            for mutant in mutants(seed) {
                let _ = parse_event(&mutant, 1);
                let _ = parse_interval(&mutant, 1);
                for doc in documents(&mutant) {
                    let _ = parse_events(&doc);
                    let _ = parse_intervals(&doc);
                }
            }
        }
    }

    #[test]
    fn event_roundtrip() {
        let events = vec![OutageEvent {
            prefix: "192.0.2.0/24".parse().unwrap(),
            interval: Interval::from_secs(30_010, 37_200),
            confidence: 0.99,
            detector: DetectorId::PassiveBayes,
        }];
        let doc = render_events(&events);
        let back = parse_events(&doc).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].prefix, events[0].prefix);
        assert_eq!(back[0].interval, events[0].interval);
        assert_eq!(back[0].detector, events[0].detector);
        assert!((back[0].confidence - 0.99).abs() < 1e-9);
    }

    #[test]
    fn interval_roundtrip_merges_overlaps() {
        let doc = "# spans\n100 200\n\n150 300\n400 500\n";
        let set = parse_intervals(doc).unwrap();
        assert_eq!(set.intervals().len(), 2);
        assert_eq!(set.total(), 300);
        let rendered = render_intervals(&set);
        assert_eq!(parse_intervals(&rendered).unwrap(), set);
    }

    #[test]
    fn bad_interval_lines_rejected() {
        assert!(parse_interval("5 3", 1).is_err()); // end < start
        assert!(parse_interval("1 2 3", 1).is_err()); // arity
        assert!(parse_interval("x 2", 1).is_err()); // not a number
        let err = parse_intervals("1 2\nbroken\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let doc = "# header\n\n100 10.0.0.0/24\n   \n200 10.0.1.0/24\n";
        let obs = parse_observations(doc).unwrap();
        assert_eq!(obs.len(), 2);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let doc = "100 10.0.0.0/24\nbogus line here\n";
        let err = parse_observations(doc).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn bad_event_fields_rejected() {
        assert!(parse_event("10.0.0.0/24 5 3 0.9 trinocular", 1).is_err()); // end<start
        assert!(parse_event("10.0.0.0/24 1 2 1.5 trinocular", 1).is_err()); // conf>1
        assert!(parse_event("10.0.0.0/24 1 2 0.5 martian", 1).is_err()); // detector
        assert!(parse_event("10.0.0.0/24 1 2 0.5", 1).is_err()); // arity
        assert!(parse_event("10.0.0.0 1 2 0.5 trinocular", 1).is_err()); // prefix
    }

    #[test]
    fn every_detector_id_roundtrips() {
        for d in [
            DetectorId::PassiveBayes,
            DetectorId::Trinocular,
            DetectorId::Chocolatine,
            DetectorId::RipeAtlas,
            DetectorId::GroundTruth,
        ] {
            assert_eq!(detector_from_str(&d.to_string()), Some(d));
        }
    }
}
