//! The metric vocabulary: every name the benchmark may print, with its unit
//! and direction. `BENCHMARK.json` lists the same names (a unit test keeps
//! the two in step); README.md says which end-to-end metric each per-layer
//! metric should move, on which workload.

/// One metric definition.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "higher",
    }
}

/// What a user of the system sees. Every workload reports every one of
/// these (the untraced pass), and none is ever 0.
pub const END_TO_END: &[Def] = &[
    lower("round_s", "s"),
    higher("updates_per_s", "1/s"),
    lower("cpu_s_per_round", "s"),
    lower("wire_bytes_per_round", "bytes"),
    lower("peak_rss_mb", "MB"),
    lower("setup_s", "s"),
];

/// Single-layer metrics (the traced pass). A workload measures only the
/// ones whose layer it exercises; the driver's result line carries the rest
/// as 0, the report omits them.
pub const PER_LAYER: &[Def] = &[
    // rfl-tensor
    lower("tensor.conv_fwd_s", "s"),
    lower("tensor.conv_bwd_s", "s"),
    higher("tensor.conv_gflop_per_s", "gflop/s"),
    lower("tensor.gemm_fc_s", "s"),
    lower("tensor.gemm_gate_s", "s"),
    lower("tensor.simd_gates_s", "s"),
    lower("tensor.codec_encode_s", "s"),
    lower("tensor.codec_decode_s", "s"),
    // rfl-nn
    lower("nn.cnn_fwd_s", "s"),
    lower("nn.cnn_bwd_s", "s"),
    lower("nn.lstm_fwd_s", "s"),
    lower("nn.lstm_bwd_s", "s"),
    lower("nn.sgd_step_s", "s"),
    lower("nn.rmsprop_step_s", "s"),
    lower("nn.param_io_s", "s"),
    // rfl-data
    lower("data.synth_image_s", "s"),
    lower("data.synth_text_s", "s"),
    lower("data.synth_gaussian_s", "s"),
    lower("data.partition_s", "s"),
    // core::client + rules
    lower("client.train_plain_s", "s"),
    lower("client.train_mmd_s", "s"),
    lower("client.mmd_overhead_share", "ratio"),
    lower("client.compute_delta_s", "s"),
    higher("client.examples_per_s", "1/s"),
    // core::mmd + delta
    lower("mmd.stats_all_k_s", "s"),
    lower("mmd.feature_grad_s", "s"),
    lower("delta.means_excluding_s", "s"),
    lower("delta.flatten_s", "s"),
    // core::sampling
    lower("sampling.select_s", "s"),
    // core::aggregate
    lower("aggregate.fold_wide_s", "s"),
    lower("aggregate.fold_deep_s", "s"),
    lower("aggregate.fold_reordered_s", "s"),
    // core::registry
    lower("registry.materialize_s", "s"),
    lower("registry.hibernate_s", "s"),
    lower("registry.wake_s", "s"),
    lower("registry.rss_per_persisted_b", "bytes"),
    // core::compress
    lower("compress.ef_update_s", "s"),
    lower("compress.decode_s", "s"),
    lower("compress.frame_codec_s", "s"),
    higher("compress.ratio", "ratio"),
    // comm::message / socket framing
    lower("message.control_codec_s", "s"),
    lower("socket.frame_rw_s", "s"),
    lower("socket.encode_frame_s", "s"),
    // comm::transport
    lower("transport.perfect_roundtrip_s", "s"),
    // comm::reactor + session
    lower("reactor.handshake_s", "s"),
    lower("reactor.broadcast_s", "s"),
    lower("reactor.collect_s", "s"),
    higher("reactor.frames_per_s", "1/s"),
    higher("reactor.mb_per_s", "MB/s"),
    lower("reactor.sys_cpu_share", "ratio"),
    lower("reactor.threads", "count"),
    lower("reactor.rss_per_conn_b", "bytes"),
    // wire_train_q8 exposure
    lower("wire.inproc_round_s", "s"),
    lower("wire.over_inproc", "ratio"),
    lower("wire.exposed_s", "s"),
    // core::eval
    lower("eval.global_s", "s"),
    // core::trainer + algorithms, from the traced pass
    lower("phase.select_s", "s"),
    lower("phase.broadcast_s", "s"),
    lower("phase.delta_broadcast_s", "s"),
    lower("phase.delta_sync_s", "s"),
    lower("phase.local_train_s", "s"),
    lower("phase.upload_s", "s"),
    lower("phase.fold_s", "s"),
    lower("phase.aggregate_s", "s"),
    lower("phase.eval_s", "s"),
    lower("phase.prefetch_s", "s"),
    lower("phase.hibernate_s", "s"),
    lower("phase.prefetch_per_sampled", "ratio"),
    lower("phase.unaccounted_share", "ratio"),
    // reference legs
    lower("algo.fedavg_round_s", "s"),
    lower("algo.reg_over_fedavg", "ratio"),
    // whole process
    higher("budget.explained_share", "ratio"),
    lower("trace.overhead_share", "ratio"),
    lower("quality.rounds_to_target", "rounds"),
    lower("quality.time_to_target_s", "s"),
    lower("quality.final_train_loss", "loss"),
    higher("quality.final_test_acc", "ratio"),
    lower("fail_ratio", "ratio"),
];

/// The definition of `name` in either list.
pub fn lookup(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_obey_the_contract_limits() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(well_formed(d.name, 64, "_.-"), "name {}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(well_formed(d.unit, 16, "_/%.-"), "unit {}", d.unit);
            assert!(d.better == "lower" || d.better == "higher");
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program prints. They must name the same metrics with the same units
    /// and directions, in the same order.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            let listed: Vec<&str> = body
                .split("\"name\"")
                .skip(1)
                .map(|rest| rest.split('"').nth(1).expect("name string"))
                .collect();
            let expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
            assert_eq!(listed, expected, "{section} names differ");
            for d in defs {
                let entry = &body[body.find(&format!("\"{}\"", d.name)).unwrap()..];
                let entry = &entry[..entry.find('}').unwrap()];
                assert!(
                    entry.contains(&format!("\"unit\": \"{}\"", d.unit)),
                    "{}: unit",
                    d.name
                );
                assert!(
                    entry.contains(&format!("\"better\": \"{}\"", d.better)),
                    "{}: direction",
                    d.name
                );
            }
        }
    }
}
