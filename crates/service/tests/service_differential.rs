//! Service byte-identity: the NDJSON `result` stream of a session must
//! be byte-identical for any worker count, and equal to the serial
//! one-worker batch reference rendered through the same formatter — the
//! in-process version of the `service-smoke` CI job.

use expose_service::{serial_reference, ServeOptions, ServiceConfig};

/// Small-budget submit lines over a seeded generated corpus (the
/// suite runs in debug CI; the quick bench budget is too slow here).
fn submit_lines(programs: usize, seed: u64) -> Vec<String> {
    corpus::generate_dse_programs(programs, seed)
        .into_iter()
        .map(|p| {
            format!(
                "{{\"type\":\"submit\",\"name\":{},\"entry\":{},\"arity\":{},\
                 \"max_executions\":3,\"max_steps\":10000,\"program\":{}}}",
                expose_service::json::escaped(&p.name),
                expose_service::json::escaped(&p.entry),
                p.arity,
                expose_service::json::escaped(&p.source),
            )
        })
        .collect()
}

fn serve_session(input: &str, workers: usize) -> String {
    let mut output: Vec<u8> = Vec::new();
    let config = ServiceConfig {
        workers,
        ..ServiceConfig::default()
    };
    ServeOptions::new()
        .config(config)
        .serve(input.as_bytes(), &mut output)
        .expect("serve");
    String::from_utf8(output).expect("utf8")
}

#[test]
fn stream_is_byte_identical_across_worker_counts() {
    let mut input = submit_lines(4, 0x5eed21).join("\n");
    input.push_str("\n{\"type\":\"shutdown\"}\n");

    let serial = serve_session(&input, 1);
    assert_eq!(serial.lines().count(), 5, "4 results + done:\n{serial}");
    for workers in [2, 8] {
        let streamed = serve_session(&input, workers);
        assert_eq!(
            serial, streamed,
            "workers={workers} changed the byte stream"
        );
    }
}

#[test]
fn stream_matches_the_serial_batch_reference() {
    let lines = submit_lines(4, 0x5eed22);
    let mut input = lines.join("\n");
    input.push('\n');

    // The reference: the same submits through a one-worker batch,
    // rendered with the same formatter — what `serve-harness --batch`
    // prints.
    let mut reference: Vec<u8> = Vec::new();
    serial_reference(input.as_bytes(), &ServiceConfig::default(), &mut reference)
        .expect("serial reference");
    let reference = String::from_utf8(reference).expect("utf8");
    assert_eq!(reference.lines().count(), lines.len() + 1, "{reference}");

    let streamed = serve_session(&input, 8);
    assert_eq!(streamed, reference);
}

#[test]
fn control_requests_do_not_perturb_the_result_stream() {
    let lines = submit_lines(4, 0x5eed23);
    let plain = format!("{}\n", lines.join("\n"));
    let mut chatty = String::new();
    for (i, line) in lines.iter().enumerate() {
        chatty.push_str(line);
        chatty.push('\n');
        if i % 2 == 0 {
            chatty.push_str("{\"type\":\"status\"}\n");
        }
    }
    chatty.push_str("{\"type\":\"stats\"}\n");

    let filter_results = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| {
                l.starts_with("{\"v\":1,\"type\":\"result\"")
                    || l.starts_with("{\"v\":1,\"type\":\"done\"")
            })
            .map(str::to_string)
            .collect()
    };
    let plain_out = filter_results(&serve_session(&plain, 4));
    let chatty_out = filter_results(&serve_session(&chatty, 4));
    assert_eq!(plain_out, chatty_out);
    assert_eq!(plain_out.len(), 5, "4 results + done");
}

#[test]
fn every_output_line_is_valid_json_and_versioned() {
    let mut input = submit_lines(3, 0x5eed24).join("\n");
    input.push_str("\nnot json\n{\"type\":\"status\"}\n{\"type\":\"stats\"}\n");
    let output = serve_session(&input, 2);
    assert!(!output.is_empty());
    for line in output.lines() {
        expose_service::json::parse(line)
            .unwrap_or_else(|e| panic!("invalid output line {line:?}: {e}"));
        assert!(
            line.starts_with("{\"v\":"),
            "response line must lead with its protocol version: {line}"
        );
    }
}
