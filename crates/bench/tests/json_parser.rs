//! Pins `secsim_stats::Json::parse`, the decoder of every wire line and
//! store entry, by its observable behaviour:
//!
//! * a table of malformed and edge inputs with their exact outcome —
//!   the rendered value, or the error's byte offset and message;
//! * a seeded corpus of mutations of three real lines (a fig9 sweep
//!   request, a `point-done` event and a store entry), all outcomes
//!   hashed into one digest;
//! * a round-trip property over random trees, `parse(render(v)) == v`.
//!
//! The expected values were recorded from the per-character parser the
//! byte-slice scanner replaced, so both must agree on every case.

use secsim_bench::{protocol, ResultStore, RunOpts, SweepPoint};
use secsim_core::Policy;
use secsim_cpu::{SimReport, StallCause};
use secsim_mem::{BusDigest, BusEvent, BusKind};
use secsim_stats::{CounterSet, Json, StableHasher};
use secsim_workloads::{BenchId, SplitMix64};

/// What one parse produced: the value's render, or `(offset, message)`.
/// A value holding a non-finite float (`1e999` parses to infinity) has
/// no render; it is described by its debug form instead.
type Outcome = Result<String, (usize, String)>;

fn outcome(text: &str) -> Outcome {
    match Json::parse(text) {
        Ok(v) if finite(&v) => Ok(v.render()),
        Ok(v) => Ok(format!("{v:?}")),
        Err(e) => Err((e.offset, e.message)),
    }
}

fn finite(v: &Json) -> bool {
    match v {
        Json::Float(f) => f.is_finite(),
        Json::Array(items) => items.iter().all(finite),
        Json::Object(pairs) => pairs.iter().all(|(_, x)| finite(x)),
        _ => true,
    }
}

/// An object of `n` keys `"k0".."k{n-1}"`, plus a repeat of `"k{dup}"`
/// as its last key when `dup` is given.
fn keyed_object(n: usize, dup: Option<usize>) -> String {
    let mut keys: Vec<String> = (0..n).map(|i| format!("\"k{i}\":{i}")).collect();
    if let Some(d) = dup {
        keys.push(format!("\"k{d}\":0"));
    }
    format!("{{{}}}", keys.join(","))
}

fn nest(depth: usize) -> String {
    format!("{}{}", "[".repeat(depth), "]".repeat(depth))
}

#[test]
fn malformed_and_edge_inputs_keep_their_outcomes() {
    let ok = |s: &str| -> Outcome { Ok(s.to_string()) };
    let err = |at: usize, m: &str| -> Outcome { Err((at, m.to_string())) };
    let cases: Vec<(String, Outcome)> = vec![
        // Empty and truncated documents.
        ("".into(), err(0, "unexpected end of input")),
        ("   ".into(), err(3, "unexpected end of input")),
        ("[".into(), err(1, "unexpected end of input")),
        ("{\"a\":1".into(), err(6, "expected ',' or '}' in object")),
        ("nul".into(), err(0, "expected 'null'")),
        ("tru".into(), err(0, "expected 'true'")),
        ("+1".into(), err(0, "unexpected character")),
        (".5".into(), err(0, "unexpected character")),
        // Strings: termination, escapes, surrogates, raw bytes.
        ("\"abc".into(), err(4, "unterminated string")),
        ("\"ab\\".into(), err(4, "unterminated escape")),
        ("\"\\q\"".into(), err(3, "unknown escape character")),
        ("\"\\é\"".into(), err(3, "unknown escape character")),
        ("\"\\u12\"".into(), err(6, "bad hex digit in \\u escape")),
        ("\"\\u12".into(), err(5, "truncated \\u escape")),
        ("\"\\uZZZZ\"".into(), err(4, "bad hex digit in \\u escape")),
        ("\"\\ud800\"".into(), err(7, "lone high surrogate")),
        ("\"\\ud800\\u0041\"".into(), err(13, "invalid low surrogate")),
        ("\"\\udbff\\uffff\"".into(), err(13, "invalid surrogate pair")),
        ("\"\\udc00\"".into(), err(7, "invalid \\u escape")),
        ("\"\\ud800\\n\"".into(), err(8, "expected 'u'")),
        ("\"\\ud800\\ue000\"".into(), ok("\"\u{10400}\"")),
        ("\"\\uD83D\\uDE00\\u00e9\\/\"".into(), ok("\"😀é/\"")),
        ("\"\\u0000\\b\\f\"".into(), ok("\"\\u0000\\u0008\\u000c\"")),
        ("\"a\u{1}b\tc\nd\u{1f}é\"".into(), ok("\"a\\u0001b\\tc\\nd\\u001fé\"")),
        // Numbers.
        ("-".into(), err(1, "invalid number")),
        ("-a".into(), err(1, "invalid number")),
        ("1.5e".into(), err(4, "invalid number")),
        ("1e+".into(), err(3, "invalid number")),
        ("01".into(), ok("1")),
        ("-0".into(), ok("0")),
        ("-0.0".into(), ok("-0.0")),
        ("1.".into(), ok("1.0")),
        ("-.5".into(), ok("-0.5")),
        ("1.5E3".into(), ok("1500.0")),
        ("9223372036854775807".into(), ok("9223372036854775807")),
        ("9223372036854775808".into(), ok("9223372036854775808")),
        ("-9223372036854775808".into(), ok("-9223372036854775808")),
        ("-9223372036854775809".into(), ok("-9223372036854776000.0")),
        ("18446744073709551616".into(), ok("18446744073709552000.0")),
        ("000000000000000000000042".into(), ok("42")),
        ("1e999".into(), ok("Float(inf)")),
        // Whole floats from 1e15 up keep a decimal point, so they parse
        // back as floats (1e15, -1e16, 2^53, 2^63, 2^64, 1e300).
        ("1e15".into(), ok("1000000000000000.0")),
        ("-1e16".into(), ok("-10000000000000000.0")),
        ("9007199254740992.0".into(), ok("9007199254740992.0")),
        ("9.223372036854775808e18".into(), ok("9223372036854776000.0")),
        ("18446744073709551616.0".into(), ok("18446744073709552000.0")),
        ("1e300".into(), ok(&format!("1{}.0", "0".repeat(300)))),
        // Arrays, objects, trailing input.
        ("[1,]".into(), err(3, "unexpected character")),
        ("[1 2]".into(), err(3, "expected ',' or ']' in array")),
        ("{\"a\":}".into(), err(5, "unexpected character")),
        ("{\"a\" 1}".into(), err(5, "expected ':'")),
        ("{\"a\":1 \"b\":2}".into(), err(7, "expected ',' or '}' in object")),
        ("{1:2}".into(), err(1, "expected '\"'")),
        ("{,}".into(), err(1, "expected '\"'")),
        ("1 2".into(), err(2, "trailing characters after JSON value")),
        ("nulll".into(), err(4, "trailing characters after JSON value")),
        ("[]]".into(), err(2, "trailing characters after JSON value")),
        (" { \"a\" : [ 1 , 2.5 ] , \"b\" : { } } \n".into(), ok("{\"a\":[1,2.5],\"b\":{}}")),
        // Depth.
        (nest(Json::MAX_DEPTH), ok(&nest(Json::MAX_DEPTH))),
        (nest(Json::MAX_DEPTH + 1), err(128, "nesting deeper than 128 levels")),
        // Duplicate keys: refused where the object closes, on both sides
        // of any small-object threshold, and only after the rest parsed.
        ("{\"a\":1,\"a\":2}".into(), err(12, "duplicate object key")),
        ("{\"a\":1,\"a\":2,}".into(), err(13, "expected '\"'")),
        ("{\"a\":{\"b\":1,\"b\":2},\"c\":3}".into(), err(17, "duplicate object key")),
        (keyed_object(2, Some(0)), err(21, "duplicate object key")),
        (keyed_object(17, Some(16)), err(141, "duplicate object key")),
        (keyed_object(17, Some(0)), err(140, "duplicate object key")),
        (keyed_object(1_000, Some(500)), err(10_789, "duplicate object key")),
        (keyed_object(17, None), ok(&keyed_object(17, None))),
        (keyed_object(1_000, None), ok(&keyed_object(1_000, None))),
    ];
    assert!(cases.len() >= 30);
    let mut wrong = vec![];
    for (i, (text, want)) in cases.iter().enumerate() {
        let got = outcome(text);
        if &got != want {
            let shown: String = text.chars().take(60).collect();
            wrong.push(format!("case {i} {shown:?}: want {want:?}, got {got:?}"));
        }
    }
    assert!(wrong.is_empty(), "{} case(s) changed:\n{}", wrong.len(), wrong.join("\n"));
}

/// A report with every field populated, so a rendered line exercises
/// nulls, booleans, nested arrays and objects and large integers
/// without depending on the simulator's output.
fn fixed_report() -> SimReport {
    let mut counters = CounterSet::new();
    for (i, name) in ["l2.miss", "pipe.commit", "auth.mac_wait", "dram.reads"].iter().enumerate() {
        counters.add(name, 1_000 * i as u64 + 7);
    }
    let mut stall = secsim_cpu::StallBreakdown::new();
    stall.add(StallCause::DcacheMiss, 4_321);
    stall.add(StallCause::AuthCommit, 99);
    SimReport {
        insts: 20_000,
        cycles: 31_337,
        halted: true,
        exception: Some(secsim_cpu::AuthException {
            cycle: 30_000,
            line_addr: 0x4_0040,
            precise: true,
        }),
        io_events: vec![secsim_cpu::IoEvent { port: 9, value: 0xdead_beef, cycle: 31_000 }],
        bus_events: vec![
            BusEvent { cycle: 17, addr: 0x1000, kind: BusKind::InstrFetch },
            BusEvent { cycle: 250, addr: 0x4_0040, kind: BusKind::MacFetch },
        ],
        bus_digest: Some(BusDigest { events: 2, full: u64::MAX, addrs: 1 << 63, timing: 12_345 }),
        control_events: vec![secsim_cpu::ControlEvent {
            pc: 0x1010,
            taken: false,
            target: 0x1040,
            resolved: 211,
        }],
        counters,
        stall,
        ..SimReport::default()
    }
}

/// The three lines the corpus mutates.
fn corpus_bases() -> Vec<String> {
    // fig9's grid for one benchmark: the baseline plus commit +
    // obfuscation at three remap-cache sizes.
    let mut points = vec![SweepPoint::of(BenchId::Mcf, Policy::baseline(), &RunOpts::default())];
    for bytes in [64 * 1024, 256 * 1024, 1024 * 1024] {
        let opts = RunOpts { remap_cache_bytes: Some(bytes), ..RunOpts::default() };
        points.push(SweepPoint::of(BenchId::Mcf, Policy::commit_plus_obfuscation(), &opts));
    }
    let request = protocol::sweep_request_v2(&points);

    let report = fixed_report();
    let (key, payload) = protocol::result_to_json(&Ok(report.clone()));
    let event = Json::obj(vec![
        ("event", Json::Str("point-done".into())),
        ("job", Json::UInt(3)),
        ("index", Json::UInt(71)),
        (key, payload),
        ("seq", Json::UInt(73)),
    ])
    .render();

    let dir = std::env::temp_dir().join(format!("secsim-json-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::new(dir.clone());
    assert!(store.put("mcf", 0x0123_4567_89ab_cdef, &report), "store entry written");
    let entry = std::fs::read_to_string(dir.join("mcf-0123456789abcdef.json")).expect("entry");
    let _ = std::fs::remove_dir_all(&dir);
    vec![request, event, entry]
}

/// One to four mutations of one base line: byte flips, truncations and
/// insertions of structural characters and digits.
fn mutate(base: &str, rng: &mut SplitMix64) -> String {
    const INSERTS: &[u8] = b"\"\\[{0123456789";
    let mut bytes = base.as_bytes().to_vec();
    for _ in 0..1 + rng.next_u64() % 4 {
        let at = (rng.next_u64() % (bytes.len() as u64 + 1)) as usize;
        match rng.next_u64() % 3 {
            0 if at < bytes.len() => bytes[at] ^= 1 << (rng.next_u64() % 7),
            1 => bytes.truncate(at),
            _ => bytes.insert(at, INSERTS[(rng.next_u64() % INSERTS.len() as u64) as usize]),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn seeded_mutation_corpus_keeps_its_digest() {
    const CASES: usize = 10_200;
    let bases = corpus_bases();
    let mut rng = SplitMix64::new(0x150a_2006);
    let mut h = StableHasher::new();
    let (mut oks, mut errs) = (0usize, 0usize);
    for i in 0..CASES {
        let text = mutate(&bases[i % bases.len()], &mut rng);
        let got = outcome(&text);
        match &got {
            Ok(rendered) => {
                oks += 1;
                h.write(b"ok");
                h.write(rendered.as_bytes());
                if finite(&Json::parse(&text).expect("parsed once")) {
                    assert_eq!(
                        outcome(rendered).as_ref(),
                        Ok(rendered),
                        "case {i}: render round trip"
                    );
                }
            }
            Err((offset, message)) => {
                errs += 1;
                assert!(*offset <= text.len(), "case {i}: offset {offset} past the input");
                h.write(b"err");
                h.write(&offset.to_le_bytes());
                h.write(message.as_bytes());
            }
        }
    }
    assert!(oks > 100 && errs > 100, "the corpus mixes outcomes: {oks} ok, {errs} errors");
    assert_eq!(
        (oks, errs, h.finish()),
        (1_753, 8_447, 0x90a7_29ba_db4c_8b0a),
        "corpus outcomes changed"
    );
}

/// A random string drawn from characters that need escaping, ASCII and
/// multi-byte UTF-8.
fn random_string(rng: &mut SplitMix64) -> String {
    const CHARS: &[char] = &[
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é',
        'π', '\u{2028}', '😀',
    ];
    (0..rng.next_u64() % 12)
        .map(|_| CHARS[(rng.next_u64() % CHARS.len() as u64) as usize])
        .collect()
}

/// A finite float. About half the raw bit patterns it draws are whole
/// numbers of magnitude 2^53 or more, which must stay floats too.
fn random_float(rng: &mut SplitMix64) -> f64 {
    const SPECIAL: [f64; 8] = [0.0, -0.0, 0.5, 2.0, 1e300, 5e-324, f64::MAX, f64::MIN_POSITIVE];
    loop {
        let f = match rng.next_u64() % 3 {
            0 => SPECIAL[(rng.next_u64() % SPECIAL.len() as u64) as usize],
            1 => (rng.next_u64() % 1_000_000) as f64 / 1_000.0 - 500.0,
            _ => f64::from_bits(rng.next_u64()),
        };
        if f.is_finite() {
            return f;
        }
    }
}

fn random_int(rng: &mut SplitMix64) -> Json {
    match rng.next_u64() % 6 {
        0 => Json::Int(i64::MIN),
        1 => Json::Int(i64::MAX),
        2 => Json::UInt(u64::MAX),
        3 => Json::UInt(i64::MAX as u64 + 1 + rng.next_u64() % (u64::MAX / 2)),
        4 => Json::Int((rng.next_u64() % 2_000) as i64 - 1_000),
        _ => Json::Int(rng.next_u64() as i64),
    }
}

fn random_tree(rng: &mut SplitMix64, depth: usize) -> Json {
    let leaf = depth >= Json::MAX_DEPTH;
    match rng.next_u64() % if leaf { 6 } else { 8 } {
        0 => Json::Null,
        1 => Json::Bool(rng.next_u64().is_multiple_of(2)),
        2 | 3 => random_int(rng),
        4 => Json::Float(random_float(rng)),
        5 => Json::Str(random_string(rng)),
        6 => Json::Array((0..rng.next_u64() % 4).map(|_| random_tree(rng, depth + 1)).collect()),
        _ => Json::Object(
            (0..rng.next_u64() % 4)
                .map(|i| (format!("{}{i}", random_string(rng)), random_tree(rng, depth + 1)))
                .collect(),
        ),
    }
}

/// A chain of arrays and objects exactly `Json::MAX_DEPTH` deep with a
/// random leaf at the bottom.
fn deep_chain(rng: &mut SplitMix64) -> Json {
    let mut v = random_tree(rng, Json::MAX_DEPTH);
    for level in 0..Json::MAX_DEPTH {
        v = if rng.next_u64().is_multiple_of(2) {
            Json::Array(vec![Json::Int(level as i64), v])
        } else {
            Json::Object(vec![(random_string(rng), v)])
        };
    }
    v
}

#[test]
fn random_trees_round_trip_through_render_and_parse() {
    let mut rng = SplitMix64::new(2006);
    for case in 0..3_000 {
        let v = if case % 100 == 0 { deep_chain(&mut rng) } else { random_tree(&mut rng, 0) };
        let text = v.render();
        let back = Json::parse(&text).unwrap_or_else(|e| panic!("case {case}: {e} in {text}"));
        assert_eq!(back, v, "case {case}: {text}");
        assert_eq!(back.render(), text, "case {case}");
    }
}
