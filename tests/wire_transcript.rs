//! Pins the NDJSON wire bytes. One `Connection` on a one-worker service
//! runs a fixed session, and every response must serialize to exactly the
//! committed line. A change behind the wire that moves any byte (job ids,
//! labels, cache flags, numbers, error texts or counters) fails here.
//! `metrics` is left out because its latency histograms vary between runs.

use cimflow_dse::serve::Connection;
use cimflow_dse::{EvalService, ServiceConfig};

/// `(request line, expected response line)` pairs, in session order.
const SESSION: &[(&str, &str)] = &[
    (
        r#"{"submit": {"model": {"name": "mobilenetv2", "resolution": 32}, "strategy": "generic", "tenant": "pin"}}"#,
        r#"{"accepted":{"job":1}}"#,
    ),
    (
        r#"{"wait": {"job": 1}}"#,
        r#"{"result":{"job":1,"label":"mobilenetv2@32 generic chips=1 cores=64 lmem=512KiB flit=8B mg=8","ok":true,"cached":false,"error":null,"total_cycles":810209,"energy_mj":0.13241022128000002,"throughput_tops":0.018247459606101635,"serving":null}}"#,
    ),
    (
        r#"{"poll": {"job": 1}}"#,
        r#"{"error":{"message":"unknown job id 1 (not submitted on this connection)"}}"#,
    ),
    (
        r#"{"sweep": {"spec": {"models": [{"name": "mobilenetv2", "resolution": 32}], "strategies": ["generic"], "mg_sizes": [4, 8], "frequencies_mhz": [500, 1000]}, "tenant": "pin"}}"#,
        r#"{"accepted_batch":{"batch":1,"jobs":[2,4,3,5],"points":4,"resumed":0}}"#,
    ),
    (
        r#"{"wait": {"batch": 1}}"#,
        r#"{"batch_result":{"batch":1,"outcomes":[{"job":2,"label":"mobilenetv2@32 generic chips=1 cores=64 lmem=512KiB flit=8B mg=4 freq=500MHz","ok":true,"cached":false,"error":null,"total_cycles":765415,"energy_mj":0.10790827249200002,"throughput_tops":0.009657673288346845,"serving":null},{"job":4,"label":"mobilenetv2@32 generic chips=1 cores=64 lmem=512KiB flit=8B mg=4","ok":true,"cached":false,"error":null,"total_cycles":765415,"energy_mj":0.10790827249200002,"throughput_tops":0.01931534657669369,"serving":null},{"job":3,"label":"mobilenetv2@32 generic chips=1 cores=64 lmem=512KiB flit=8B mg=8 freq=500MHz","ok":true,"cached":false,"error":null,"total_cycles":810209,"energy_mj":0.13241022128000002,"throughput_tops":0.009123729803050817,"serving":null},{"job":5,"label":"mobilenetv2@32 generic chips=1 cores=64 lmem=512KiB flit=8B mg=8","ok":true,"cached":true,"error":null,"total_cycles":810209,"energy_mj":0.13241022128000002,"throughput_tops":0.018247459606101635,"serving":null}]}}"#,
    ),
    (
        r#"{"sweep": {"spec": {"models": [], "strategies": ["generic"]}, "tenant": "pin"}}"#,
        r#"{"rejected":{"kind":"invalid_spec","reason":"invalid sweep specification: the `models` axis must name at least one model"}}"#,
    ),
    (
        r#"{"cancel": {"job": 99}}"#,
        r#"{"error":{"message":"unknown job id 99 (not submitted on this connection)"}}"#,
    ),
    ("not json at all", r#"{"error":{"message":"bad request: invalid token at byte 0"}}"#),
    (
        r#"{"stats": {}}"#,
        r#"{"stats":{"service":{"submitted":5,"completed":5,"cancelled":0,"rejected":0,"queued":0,"running":0},"cache":{"hits":1,"misses":4,"coalesced":0},"cache_entries":4,"tenants":[]}}"#,
    ),
];

#[test]
fn a_fixed_session_answers_byte_identical_lines() {
    let service = EvalService::new(ServiceConfig::new().with_workers(1));
    let mut connection = Connection::new(&service);
    for (request, expected) in SESSION {
        let (response, shutdown) = connection.handle_line(request);
        assert!(!shutdown, "no request of the session shuts the service down");
        let actual = serde_json::to_string(&response).expect("responses serialize");
        assert_eq!(actual, *expected, "response to {request}");
    }
}
