//! Golden bytes of the JSON writer: the compact and pretty output of the
//! record, summary-envelope, string and number shapes the engine's wire
//! and report files carry. The expected strings were recorded from the
//! writer that lowered every value to a `Value` tree before rendering it;
//! the streaming writer must reproduce them byte for byte.

use serde::ser::SerializeStruct;
use serde::{Serialize, Serializer};

/// The shape of an engine `RangeSummary`.
#[derive(Serialize)]
struct Range {
    samples: usize,
    ssim_low: f64,
    ssim_high: f64,
    ssim_median: f64,
    rebuffer_low: f64,
    rebuffer_high: f64,
    rebuffer_median: f64,
    bitrate_low: f64,
    bitrate_high: f64,
    bitrate_median: f64,
}

/// The shape of a player `QoeSummary`.
#[derive(Serialize)]
struct Qoe {
    mean_ssim: f64,
    rebuffer_ratio_percent: f64,
    avg_bitrate_mbps: f64,
    startup_delay_s: f64,
    chunks: usize,
}

/// The shape of an engine `QueryOutput`.
#[derive(Serialize, Default)]
struct Output {
    chunks: Option<usize>,
    mean_capacity_mbps: Option<f64>,
    viterbi_mae_vs_truth_mbps: Option<f64>,
    expected_capacity_mbps: Option<f64>,
    predicted_download_time_s: Option<f64>,
    actual_download_time_s: Option<f64>,
    veritas: Option<Range>,
    baseline: Option<Qoe>,
    oracle: Option<Qoe>,
    metric_value: Option<f64>,
    aggregate: Option<f64>,
}

/// The shape of an engine `QueryRecord`: `attempts` is omitted, not
/// `null`, when unset.
struct Record {
    query_id: String,
    kind: &'static str,
    session: String,
    variant: Option<String>,
    status: &'static str,
    error: Option<String>,
    cache: Option<&'static str>,
    elapsed_us: u64,
    output: Option<Output>,
    attempts: Option<u64>,
}

impl Serialize for Record {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let fields = 9 + usize::from(self.attempts.is_some());
        let mut state = serializer.serialize_struct("Record", fields)?;
        state.serialize_field("query_id", &self.query_id)?;
        state.serialize_field("kind", self.kind)?;
        state.serialize_field("session", &self.session)?;
        state.serialize_field("variant", &self.variant)?;
        state.serialize_field("status", self.status)?;
        state.serialize_field("error", &self.error)?;
        state.serialize_field("cache", &self.cache)?;
        state.serialize_field("elapsed_us", &self.elapsed_us)?;
        state.serialize_field("output", &self.output)?;
        if let Some(attempts) = &self.attempts {
            state.serialize_field("attempts", attempts)?;
        }
        state.end()
    }
}

/// The shape of an engine `QueryLatency`.
#[derive(Serialize)]
struct Latency {
    id: String,
    units: usize,
    p50_us: u64,
    p95_us: u64,
    max_us: u64,
}

/// The shape of an engine `RunSummary`.
#[derive(Serialize)]
struct Summary {
    queryset: String,
    queries: usize,
    sessions: usize,
    units: usize,
    ok: usize,
    errors: usize,
    cache_hits: u64,
    cache_misses: u64,
    disk_hits: u64,
    threads: usize,
    shards: usize,
    elapsed_ms: f64,
    retries: u64,
    quarantined: Vec<String>,
    shard_retries: u64,
    per_query: Vec<Latency>,
}

/// The shape of the daemon's `SummaryEnvelope`.
#[derive(Serialize)]
struct Envelope {
    summary: Summary,
    req_id: Option<u64>,
}

#[derive(Serialize)]
struct Strings {
    plain: &'static str,
    empty: &'static str,
    quotes: &'static str,
    backslashes: &'static str,
    controls: &'static str,
    backspace_formfeed: &'static str,
    del: &'static str,
    accented: &'static str,
    emoji: &'static str,
    mixed: String,
}

#[derive(Serialize)]
struct Integers {
    zero: u64,
    u8_max: u8,
    i8_min: i8,
    u32_max: u32,
    below_2_53: u64,
    at_2_53: u64,
    past_2_53: u64,
    u64_max: u64,
    i64_min: i64,
    negative: i64,
    unit: (),
    yes: bool,
    no: bool,
    absent: Option<u64>,
}

#[derive(Serialize)]
struct Hidden {
    #[serde(skip)]
    _secret: u64,
}

#[derive(Serialize)]
struct Empties {
    none: Vec<f64>,
    nested: Vec<Vec<Vec<u8>>>,
    object: Hidden,
    objects: Vec<Hidden>,
    pair: (Vec<u8>, Hidden),
}

fn range() -> Range {
    Range {
        samples: 2,
        ssim_low: 0.912_345_678_9,
        ssim_high: 0.95,
        ssim_median: 0.931_25,
        rebuffer_low: 0.0,
        rebuffer_high: 1.75,
        rebuffer_median: 0.387_5,
        bitrate_low: 1.2,
        bitrate_high: 4.3,
        bitrate_median: std::f64::consts::E,
    }
}

fn qoe(scale: f64) -> Qoe {
    Qoe {
        mean_ssim: 0.9 * scale,
        rebuffer_ratio_percent: 2.5 / scale,
        avg_bitrate_mbps: 3.0 * scale,
        startup_delay_s: 1.0 / 3.0,
        chunks: 60,
    }
}

fn ok_record() -> Record {
    Record {
        query_id: "rung-3".to_owned(),
        kind: "interventional",
        session: "session-0007".to_owned(),
        variant: None,
        status: "ok",
        error: None,
        cache: Some("hit"),
        elapsed_us: 41,
        output: Some(Output {
            expected_capacity_mbps: Some(4.262_853_718_035_165),
            predicted_download_time_s: Some(0.843_010_297_126_357_4),
            actual_download_time_s: Some(1.0),
            ..Output::default()
        }),
        attempts: None,
    }
}

fn counterfactual_record() -> Record {
    Record {
        query_id: "what-if-bba".to_owned(),
        kind: "counterfactual",
        session: "s1".to_owned(),
        variant: Some("sigma=0.5".to_owned()),
        status: "ok",
        error: None,
        cache: Some("miss"),
        elapsed_us: 18_446,
        output: Some(Output {
            chunks: Some(120),
            mean_capacity_mbps: Some(5.0),
            veritas: Some(range()),
            baseline: Some(qoe(1.0)),
            oracle: Some(qoe(1.1)),
            ..Output::default()
        }),
        attempts: None,
    }
}

fn error_record() -> Record {
    Record {
        query_id: "iv".to_owned(),
        kind: "interventional",
        session: "s2".to_owned(),
        variant: None,
        status: "error",
        error: Some("chunk_index 999 is past the session's 60 chunks".to_owned()),
        cache: None,
        elapsed_us: 3,
        output: None,
        attempts: None,
    }
}

fn retried_record() -> Record {
    Record {
        attempts: Some(3),
        error: Some("injected compute fault (fault plan)".to_owned()),
        session: "*".to_owned(),
        kind: "aggregate",
        ..error_record()
    }
}

fn summary() -> Summary {
    Summary {
        queryset: "nextchunk".to_owned(),
        queries: 6,
        sessions: 200,
        units: 6,
        ok: 6,
        errors: 0,
        cache_hits: 5,
        cache_misses: 1,
        disk_hits: 0,
        threads: 1,
        shards: 1,
        elapsed_ms: 0.046_875,
        retries: 0,
        quarantined: Vec::new(),
        shard_retries: 0,
        per_query: vec![
            Latency {
                id: "logged".to_owned(),
                units: 1,
                p50_us: 20,
                p95_us: 20,
                max_us: 20,
            },
            Latency {
                id: "rung-0".to_owned(),
                units: 1,
                p50_us: 1,
                p95_us: 1,
                max_us: 1,
            },
        ],
    }
}

fn strings() -> Strings {
    Strings {
        plain: "session-0001",
        empty: "",
        quotes: "say \"hi\"",
        backslashes: "C:\\dir\\file \\n",
        controls: "a\nb\rc\td\u{1}e\u{1f}f\u{0}",
        backspace_formfeed: "\u{8}\u{c}",
        del: "\u{7f}",
        accented: "café",
        emoji: "😀 ok 🎬",
        mixed: "\"é\\\u{1}😀\n\u{7f}x".repeat(2),
    }
}

fn numbers() -> Vec<f64> {
    let two_53 = 9_007_199_254_740_992.0;
    vec![
        0.0,
        -0.0,
        42.0,
        -7.0,
        0.5,
        1e-7,
        1e21,
        two_53 - 1.0,
        two_53,
        -two_53,
        two_53 * 2.0,
        u64::MAX as f64,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.1 + 0.2,
        1.0 / 3.0,
        -2.5e-10,
        1.5e300,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::from(0.1f32),
        123_456.789,
    ]
}

fn integers() -> Integers {
    Integers {
        zero: 0,
        u8_max: u8::MAX,
        i8_min: i8::MIN,
        u32_max: u32::MAX,
        below_2_53: (1 << 53) - 1,
        at_2_53: 1 << 53,
        past_2_53: (1 << 53) + 1,
        u64_max: u64::MAX,
        i64_min: i64::MIN,
        negative: -1_234_567,
        unit: (),
        yes: true,
        no: false,
        absent: None,
    }
}

fn empties() -> Empties {
    Empties {
        none: Vec::new(),
        nested: vec![vec![], vec![vec![]], vec![vec![], vec![1]]],
        object: Hidden { _secret: 1 },
        objects: vec![Hidden { _secret: 2 }, Hidden { _secret: 3 }],
        pair: (Vec::new(), Hidden { _secret: 4 }),
    }
}

/// Every case as `(name, compact, pretty)`.
fn cases() -> Vec<(&'static str, String, String)> {
    fn both<T: Serialize + ?Sized>(
        name: &'static str,
        value: &T,
    ) -> (&'static str, String, String) {
        (
            name,
            serde_json::to_string(value).unwrap(),
            serde_json::to_string_pretty(value).unwrap(),
        )
    }
    vec![
        both("ok_record", &ok_record()),
        both("counterfactual_record", &counterfactual_record()),
        both("error_record", &error_record()),
        both("retried_record", &retried_record()),
        both(
            "summary_envelope",
            &Envelope {
                summary: summary(),
                req_id: Some(600),
            },
        ),
        both("summary", &summary()),
        both("strings", &strings()),
        both("numbers", &numbers()),
        both("integers", &integers()),
        both("empties", &empties()),
        both("empty_array", &Vec::<f64>::new()),
        both("bare_string", "é\u{1}"),
        both("bare_number", &-0.0),
        both("none", &None::<f64>),
    ]
}

/// `(name, compact, pretty)`, as the tree-lowering writer printed them.
const EXPECTED: &[(&str, &str, &str)] = &[
    (
        "ok_record",
        "{\"query_id\":\"rung-3\",\"kind\":\"interventional\",\"session\":\"session-0007\",\"variant\":null,\"status\":\"ok\",\"error\":null,\"cache\":\"hit\",\"elapsed_us\":41,\"output\":{\"chunks\":null,\"mean_capacity_mbps\":null,\"viterbi_mae_vs_truth_mbps\":null,\"expected_capacity_mbps\":4.262853718035165,\"predicted_download_time_s\":0.8430102971263574,\"actual_download_time_s\":1,\"veritas\":null,\"baseline\":null,\"oracle\":null,\"metric_value\":null,\"aggregate\":null}}",
        "{\n  \"query_id\": \"rung-3\",\n  \"kind\": \"interventional\",\n  \"session\": \"session-0007\",\n  \"variant\": null,\n  \"status\": \"ok\",\n  \"error\": null,\n  \"cache\": \"hit\",\n  \"elapsed_us\": 41,\n  \"output\": {\n    \"chunks\": null,\n    \"mean_capacity_mbps\": null,\n    \"viterbi_mae_vs_truth_mbps\": null,\n    \"expected_capacity_mbps\": 4.262853718035165,\n    \"predicted_download_time_s\": 0.8430102971263574,\n    \"actual_download_time_s\": 1,\n    \"veritas\": null,\n    \"baseline\": null,\n    \"oracle\": null,\n    \"metric_value\": null,\n    \"aggregate\": null\n  }\n}",
    ),
    (
        "counterfactual_record",
        "{\"query_id\":\"what-if-bba\",\"kind\":\"counterfactual\",\"session\":\"s1\",\"variant\":\"sigma=0.5\",\"status\":\"ok\",\"error\":null,\"cache\":\"miss\",\"elapsed_us\":18446,\"output\":{\"chunks\":120,\"mean_capacity_mbps\":5,\"viterbi_mae_vs_truth_mbps\":null,\"expected_capacity_mbps\":null,\"predicted_download_time_s\":null,\"actual_download_time_s\":null,\"veritas\":{\"samples\":2,\"ssim_low\":0.9123456789,\"ssim_high\":0.95,\"ssim_median\":0.93125,\"rebuffer_low\":0,\"rebuffer_high\":1.75,\"rebuffer_median\":0.3875,\"bitrate_low\":1.2,\"bitrate_high\":4.3,\"bitrate_median\":2.718281828459045},\"baseline\":{\"mean_ssim\":0.9,\"rebuffer_ratio_percent\":2.5,\"avg_bitrate_mbps\":3,\"startup_delay_s\":0.3333333333333333,\"chunks\":60},\"oracle\":{\"mean_ssim\":0.9900000000000001,\"rebuffer_ratio_percent\":2.2727272727272725,\"avg_bitrate_mbps\":3.3000000000000003,\"startup_delay_s\":0.3333333333333333,\"chunks\":60},\"metric_value\":null,\"aggregate\":null}}",
        "{\n  \"query_id\": \"what-if-bba\",\n  \"kind\": \"counterfactual\",\n  \"session\": \"s1\",\n  \"variant\": \"sigma=0.5\",\n  \"status\": \"ok\",\n  \"error\": null,\n  \"cache\": \"miss\",\n  \"elapsed_us\": 18446,\n  \"output\": {\n    \"chunks\": 120,\n    \"mean_capacity_mbps\": 5,\n    \"viterbi_mae_vs_truth_mbps\": null,\n    \"expected_capacity_mbps\": null,\n    \"predicted_download_time_s\": null,\n    \"actual_download_time_s\": null,\n    \"veritas\": {\n      \"samples\": 2,\n      \"ssim_low\": 0.9123456789,\n      \"ssim_high\": 0.95,\n      \"ssim_median\": 0.93125,\n      \"rebuffer_low\": 0,\n      \"rebuffer_high\": 1.75,\n      \"rebuffer_median\": 0.3875,\n      \"bitrate_low\": 1.2,\n      \"bitrate_high\": 4.3,\n      \"bitrate_median\": 2.718281828459045\n    },\n    \"baseline\": {\n      \"mean_ssim\": 0.9,\n      \"rebuffer_ratio_percent\": 2.5,\n      \"avg_bitrate_mbps\": 3,\n      \"startup_delay_s\": 0.3333333333333333,\n      \"chunks\": 60\n    },\n    \"oracle\": {\n      \"mean_ssim\": 0.9900000000000001,\n      \"rebuffer_ratio_percent\": 2.2727272727272725,\n      \"avg_bitrate_mbps\": 3.3000000000000003,\n      \"startup_delay_s\": 0.3333333333333333,\n      \"chunks\": 60\n    },\n    \"metric_value\": null,\n    \"aggregate\": null\n  }\n}",
    ),
    (
        "error_record",
        "{\"query_id\":\"iv\",\"kind\":\"interventional\",\"session\":\"s2\",\"variant\":null,\"status\":\"error\",\"error\":\"chunk_index 999 is past the session's 60 chunks\",\"cache\":null,\"elapsed_us\":3,\"output\":null}",
        "{\n  \"query_id\": \"iv\",\n  \"kind\": \"interventional\",\n  \"session\": \"s2\",\n  \"variant\": null,\n  \"status\": \"error\",\n  \"error\": \"chunk_index 999 is past the session's 60 chunks\",\n  \"cache\": null,\n  \"elapsed_us\": 3,\n  \"output\": null\n}",
    ),
    (
        "retried_record",
        "{\"query_id\":\"iv\",\"kind\":\"aggregate\",\"session\":\"*\",\"variant\":null,\"status\":\"error\",\"error\":\"injected compute fault (fault plan)\",\"cache\":null,\"elapsed_us\":3,\"output\":null,\"attempts\":3}",
        "{\n  \"query_id\": \"iv\",\n  \"kind\": \"aggregate\",\n  \"session\": \"*\",\n  \"variant\": null,\n  \"status\": \"error\",\n  \"error\": \"injected compute fault (fault plan)\",\n  \"cache\": null,\n  \"elapsed_us\": 3,\n  \"output\": null,\n  \"attempts\": 3\n}",
    ),
    (
        "summary_envelope",
        "{\"summary\":{\"queryset\":\"nextchunk\",\"queries\":6,\"sessions\":200,\"units\":6,\"ok\":6,\"errors\":0,\"cache_hits\":5,\"cache_misses\":1,\"disk_hits\":0,\"threads\":1,\"shards\":1,\"elapsed_ms\":0.046875,\"retries\":0,\"quarantined\":[],\"shard_retries\":0,\"per_query\":[{\"id\":\"logged\",\"units\":1,\"p50_us\":20,\"p95_us\":20,\"max_us\":20},{\"id\":\"rung-0\",\"units\":1,\"p50_us\":1,\"p95_us\":1,\"max_us\":1}]},\"req_id\":600}",
        "{\n  \"summary\": {\n    \"queryset\": \"nextchunk\",\n    \"queries\": 6,\n    \"sessions\": 200,\n    \"units\": 6,\n    \"ok\": 6,\n    \"errors\": 0,\n    \"cache_hits\": 5,\n    \"cache_misses\": 1,\n    \"disk_hits\": 0,\n    \"threads\": 1,\n    \"shards\": 1,\n    \"elapsed_ms\": 0.046875,\n    \"retries\": 0,\n    \"quarantined\": [],\n    \"shard_retries\": 0,\n    \"per_query\": [\n      {\n        \"id\": \"logged\",\n        \"units\": 1,\n        \"p50_us\": 20,\n        \"p95_us\": 20,\n        \"max_us\": 20\n      },\n      {\n        \"id\": \"rung-0\",\n        \"units\": 1,\n        \"p50_us\": 1,\n        \"p95_us\": 1,\n        \"max_us\": 1\n      }\n    ]\n  },\n  \"req_id\": 600\n}",
    ),
    (
        "summary",
        "{\"queryset\":\"nextchunk\",\"queries\":6,\"sessions\":200,\"units\":6,\"ok\":6,\"errors\":0,\"cache_hits\":5,\"cache_misses\":1,\"disk_hits\":0,\"threads\":1,\"shards\":1,\"elapsed_ms\":0.046875,\"retries\":0,\"quarantined\":[],\"shard_retries\":0,\"per_query\":[{\"id\":\"logged\",\"units\":1,\"p50_us\":20,\"p95_us\":20,\"max_us\":20},{\"id\":\"rung-0\",\"units\":1,\"p50_us\":1,\"p95_us\":1,\"max_us\":1}]}",
        "{\n  \"queryset\": \"nextchunk\",\n  \"queries\": 6,\n  \"sessions\": 200,\n  \"units\": 6,\n  \"ok\": 6,\n  \"errors\": 0,\n  \"cache_hits\": 5,\n  \"cache_misses\": 1,\n  \"disk_hits\": 0,\n  \"threads\": 1,\n  \"shards\": 1,\n  \"elapsed_ms\": 0.046875,\n  \"retries\": 0,\n  \"quarantined\": [],\n  \"shard_retries\": 0,\n  \"per_query\": [\n    {\n      \"id\": \"logged\",\n      \"units\": 1,\n      \"p50_us\": 20,\n      \"p95_us\": 20,\n      \"max_us\": 20\n    },\n    {\n      \"id\": \"rung-0\",\n      \"units\": 1,\n      \"p50_us\": 1,\n      \"p95_us\": 1,\n      \"max_us\": 1\n    }\n  ]\n}",
    ),
    (
        "strings",
        "{\"plain\":\"session-0001\",\"empty\":\"\",\"quotes\":\"say \\\"hi\\\"\",\"backslashes\":\"C:\\\\dir\\\\file \\\\n\",\"controls\":\"a\\nb\\rc\\td\\u0001e\\u001ff\\u0000\",\"backspace_formfeed\":\"\\u0008\\u000c\",\"del\":\"\u{7f}\",\"accented\":\"café\",\"emoji\":\"😀 ok 🎬\",\"mixed\":\"\\\"é\\\\\\u0001😀\\n\u{7f}x\\\"é\\\\\\u0001😀\\n\u{7f}x\"}",
        "{\n  \"plain\": \"session-0001\",\n  \"empty\": \"\",\n  \"quotes\": \"say \\\"hi\\\"\",\n  \"backslashes\": \"C:\\\\dir\\\\file \\\\n\",\n  \"controls\": \"a\\nb\\rc\\td\\u0001e\\u001ff\\u0000\",\n  \"backspace_formfeed\": \"\\u0008\\u000c\",\n  \"del\": \"\u{7f}\",\n  \"accented\": \"café\",\n  \"emoji\": \"😀 ok 🎬\",\n  \"mixed\": \"\\\"é\\\\\\u0001😀\\n\u{7f}x\\\"é\\\\\\u0001😀\\n\u{7f}x\"\n}",
    ),
    (
        "numbers",
        "[0,0,42,-7,0.5,0.0000001,1000000000000000000000,9007199254740991,9007199254740992,-9007199254740992,18014398509481984,18446744073709552000,null,null,null,0.30000000000000004,0.3333333333333333,-0.00000000025,1500000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000,0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000022250738585072014,179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000,0.10000000149011612,123456.789]",
        "[\n  0,\n  0,\n  42,\n  -7,\n  0.5,\n  0.0000001,\n  1000000000000000000000,\n  9007199254740991,\n  9007199254740992,\n  -9007199254740992,\n  18014398509481984,\n  18446744073709552000,\n  null,\n  null,\n  null,\n  0.30000000000000004,\n  0.3333333333333333,\n  -0.00000000025,\n  1500000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000,\n  0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000022250738585072014,\n  179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000,\n  0.10000000149011612,\n  123456.789\n]",
    ),
    (
        "integers",
        "{\"zero\":0,\"u8_max\":255,\"i8_min\":-128,\"u32_max\":4294967295,\"below_2_53\":9007199254740991,\"at_2_53\":9007199254740992,\"past_2_53\":9007199254740993,\"u64_max\":18446744073709551615,\"i64_min\":-9223372036854775808,\"negative\":-1234567,\"unit\":null,\"yes\":true,\"no\":false,\"absent\":null}",
        "{\n  \"zero\": 0,\n  \"u8_max\": 255,\n  \"i8_min\": -128,\n  \"u32_max\": 4294967295,\n  \"below_2_53\": 9007199254740991,\n  \"at_2_53\": 9007199254740992,\n  \"past_2_53\": 9007199254740993,\n  \"u64_max\": 18446744073709551615,\n  \"i64_min\": -9223372036854775808,\n  \"negative\": -1234567,\n  \"unit\": null,\n  \"yes\": true,\n  \"no\": false,\n  \"absent\": null\n}",
    ),
    (
        "empties",
        "{\"none\":[],\"nested\":[[],[[]],[[],[1]]],\"object\":{},\"objects\":[{},{}],\"pair\":[[],{}]}",
        "{\n  \"none\": [],\n  \"nested\": [\n    [],\n    [\n      []\n    ],\n    [\n      [],\n      [\n        1\n      ]\n    ]\n  ],\n  \"object\": {},\n  \"objects\": [\n    {},\n    {}\n  ],\n  \"pair\": [\n    [],\n    {}\n  ]\n}",
    ),
    (
        "empty_array",
        "[]",
        "[]",
    ),
    (
        "bare_string",
        "\"é\\u0001\"",
        "\"é\\u0001\"",
    ),
    (
        "bare_number",
        "0",
        "0",
    ),
    (
        "none",
        "null",
        "null",
    ),
];

#[test]
fn compact_output_matches_the_recorded_bytes() {
    let cases = cases();
    assert_eq!(cases.len(), EXPECTED.len());
    for ((name, compact, _), (expected_name, expected, _)) in cases.iter().zip(EXPECTED) {
        assert_eq!(name, expected_name);
        assert_eq!(compact, expected, "compact `{name}`");
    }
}

#[test]
fn pretty_output_matches_the_recorded_bytes() {
    let cases = cases();
    assert_eq!(cases.len(), EXPECTED.len());
    for ((name, _, pretty), (expected_name, _, expected)) in cases.iter().zip(EXPECTED) {
        assert_eq!(name, expected_name);
        assert_eq!(pretty, expected, "pretty `{name}`");
    }
}
