//! Per-layer probes: repeated calls into one public function of one layer,
//! at the shapes the calling workload uses, reported as the median seconds
//! per call. Each probe runs under a `probe:<metric>` span of the traced
//! pass's journal.

use crate::harness::Outcome;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_core::comm::{
    encode_frame, read_frame, write_frame, ControlMsg, MsgKind, PerfectTransport, Transport,
};
use rfl_core::compress::{decode_upload_into, ef_compress_update, CompressedVec, Compression};
use rfl_core::delta::DeltaTable;
use rfl_core::mmd::{feature_gradient_into, MmdStats};
use rfl_core::{
    Client, Federation, LocalRule, ModelFactory, OptimizerFactory, StreamingAggregator,
};
use rfl_nn::{cross_entropy_into, Input, ModelOutput};
use rfl_tensor::{
    conv2d_backward_into, conv2d_into, decode_f32_into, encode_f32_into, wire_size, Conv2dGrads,
    ConvSpec, Initializer, Tensor,
};
use rfl_trace::Tracer;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall budget of one probe; slow calls still get [`MIN_SAMPLES`].
const PROBE_BUDGET: Duration = Duration::from_millis(40);
/// Shortest timed stretch: calls faster than this are batched.
const MIN_SAMPLE: Duration = Duration::from_micros(200);
const MIN_SAMPLES: usize = 7;
const MAX_SAMPLES: usize = 101;

/// Where probe results and spans go.
pub struct Probes<'a> {
    pub out: &'a mut Outcome,
    pub tracer: &'a Tracer,
}

impl Probes<'_> {
    /// Seconds per call of `f` over repeated timed stretches, under a
    /// `probe:<name>` span.
    fn samples(&mut self, name: &str, mut f: impl FnMut()) -> Vec<f64> {
        let _span = self.tracer.begin_run(&format!("probe:{name}"));
        // Two untimed calls warm caches and size reusable buffers.
        f();
        let t0 = Instant::now();
        f();
        let once = t0.elapsed().max(Duration::from_nanos(20));
        let batch = (MIN_SAMPLE.as_nanos() / once.as_nanos()).clamp(1, 1 << 20) as usize;
        let per_sample = once * batch as u32;
        let samples = ((PROBE_BUDGET.as_nanos() / per_sample.as_nanos().max(1)) as usize)
            .clamp(MIN_SAMPLES, MAX_SAMPLES);
        (0..samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..batch {
                    f();
                }
                t.elapsed().as_secs_f64() / batch as f64
            })
            .collect()
    }

    /// Times `f` and records the median seconds per call as `name`;
    /// returns that median.
    pub fn time(&mut self, name: &str, f: impl FnMut()) -> f64 {
        let secs = self.samples(name, f);
        self.out.put_samples(name, &secs);
        self.out.get(name).expect("just recorded")
    }

    /// Conv and FC kernels at the cifar-like CNN's shapes (`conv2` at batch
    /// `batch`, the first FC layer).
    pub fn tensor_cnn(&mut self, batch: usize) {
        let mut rng = StdRng::seed_from_u64(1);
        let x = Initializer::Normal(1.0).init(&[batch, 8, 8, 8], &mut rng);
        let w = Initializer::Normal(0.1).init(&[16, 8, 3, 3], &mut rng);
        let bias = Tensor::zeros(&[16]);
        let spec = ConvSpec {
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let mut y = Tensor::scratch();
        let fwd = self.time("tensor.conv_fwd_s", || {
            conv2d_into(black_box(&x), &w, &bias, spec, &mut y);
        });
        // Multiply-adds of the dense (unclipped) kernel, ×2 for flops.
        let flops = 2.0 * (batch * 16 * 8 * 8 * 8 * 3 * 3) as f64;
        self.out.put("tensor.conv_gflop_per_s", flops / fwd * 1e-9);
        let dy = Initializer::Normal(1.0).init(y.dims(), &mut rng);
        let mut grads = Conv2dGrads::scratch();
        let mut scratch = Vec::new();
        self.time("tensor.conv_bwd_s", || {
            conv2d_backward_into(black_box(&x), &w, &dy, spec, &mut grads, &mut scratch);
        });
        let a = Initializer::Normal(1.0).init(&[batch, 256], &mut rng);
        let b = Initializer::Normal(0.1).init(&[256, 64], &mut rng);
        let mut c = Tensor::scratch();
        self.time("tensor.gemm_fc_s", || black_box(&a).matmul_into(&b, &mut c));
    }

    /// The LSTM's recurrent gate GEMM (`[B, H] × [H, 4H]`) and its SIMD
    /// gate non-linearities on `B·4H` values.
    pub fn tensor_lstm(&mut self, batch: usize, hidden: usize) {
        let mut rng = StdRng::seed_from_u64(2);
        let h = Initializer::Normal(1.0).init(&[batch, hidden], &mut rng);
        let w = Initializer::Normal(0.1).init(&[hidden, 4 * hidden], &mut rng);
        let mut gates = Tensor::scratch();
        self.time("tensor.gemm_gate_s", || {
            black_box(&h).matmul_into(&w, &mut gates)
        });
        let pre: Vec<f32> = gates.data().to_vec();
        let mut buf = pre.clone();
        let n = hidden * batch;
        self.time("tensor.simd_gates_s", || {
            buf.copy_from_slice(&pre);
            // i, f, o gates through sigmoid; candidate through tanh; the
            // softmax-style exp on one gate's worth for the loss path.
            rfl_tensor::sigmoid_slices(&mut buf[..3 * n]);
            rfl_tensor::tanh_slices(&mut buf[3 * n..]);
            rfl_tensor::exp_slices(&mut buf[..n], 1.0, 0.0);
            black_box(&buf);
        });
    }

    /// The dense wire codec at `dim` floats.
    pub fn tensor_codec(&mut self, dim: usize) {
        let values: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut wire = Vec::new();
        self.time("tensor.codec_encode_s", || {
            encode_f32_into(&mut wire, black_box(&values));
        });
        let mut decoded = Vec::new();
        self.time("tensor.codec_decode_s", || {
            decode_f32_into(black_box(&wire), &mut decoded).expect("own encoding decodes");
        });
    }

    /// Forward, backward, optimizer step and flat-parameter I/O of `model`
    /// on one `input` batch. `prefix` is `cnn` or `lstm`; `step` is the
    /// optimizer metric to record.
    pub fn nn_model(
        &mut self,
        prefix: &str,
        model: ModelFactory,
        optimizer: OptimizerFactory,
        step: &str,
        input: &Input,
        labels: &[usize],
    ) {
        let mut m = model.build(3);
        let mut out = ModelOutput::scratch();
        self.time(&format!("nn.{prefix}_fwd_s"), || {
            m.forward_into(black_box(input), &mut out, true);
        });
        let (mut log_p, mut dlogits) = (Tensor::scratch(), Tensor::scratch());
        cross_entropy_into(&out.logits, labels, &mut log_p, &mut dlogits);
        // Backward consumes the forward's caches, so each timed call pays a
        // forward too; the forward median is taken back out of each sample.
        let fwd = self.out.get(&format!("nn.{prefix}_fwd_s")).expect("fwd");
        let name = format!("nn.{prefix}_bwd_s");
        let both = self.samples(&name, || {
            m.zero_grads();
            m.forward_into(input, &mut out, true);
            m.backward(black_box(&dlogits), None);
        });
        let bwd: Vec<f64> = both.iter().map(|s| (s - fwd).max(0.0)).collect();
        self.out.put_samples(&name, &bwd);
        let (mut flat, mut grads) = (Vec::new(), Vec::new());
        self.time("nn.param_io_s", || {
            m.read_params(&mut flat);
            m.read_grads(&mut grads);
            m.write_params(black_box(&flat));
        });
        let mut opt = optimizer.build();
        self.time(step, || opt.step(&mut flat, black_box(&grads)));
    }

    /// One client's local training under the plain and the MMD rule, and
    /// its δ probe. `client` should be a replica the workload's own runs do
    /// not use (training moves its parameters and RNG).
    pub fn client(&mut self, client: &mut Client, steps: usize, lambda: f32, probe_batch: usize) {
        let mut examples = 0usize;
        let plain = self.time("client.train_plain_s", || {
            examples = client.train_local(steps, &LocalRule::Plain).examples;
        });
        self.out
            .put("client.examples_per_s", examples as f64 / plain);
        let rule = LocalRule::Mmd {
            lambda,
            target: Arc::new(vec![0.05; client.feature_dim()]),
        };
        let mmd = self.time("client.train_mmd_s", || {
            black_box(client.train_local(steps, &rule));
        });
        self.out
            .put("client.mmd_overhead_share", (mmd - plain) / plain);
        self.time("client.compute_delta_s", || {
            black_box(client.compute_delta(probe_batch));
        });
    }

    /// The regularizer's own arithmetic: the feature-layer gradient at
    /// `[batch, feat]`.
    pub fn mmd_feature_grad(&mut self, batch: usize, feat: usize) {
        let mut rng = StdRng::seed_from_u64(4);
        let features = Initializer::Normal(1.0).init(&[batch, feat], &mut rng);
        let target = vec![0.05f32; feat];
        let (mut mu, mut grad) = (Tensor::scratch(), Tensor::scratch());
        self.time("mmd.feature_grad_s", || {
            feature_gradient_into(black_box(&features), &target, 0.1, &mut mu, &mut grad);
        });
    }

    /// The δ plane at `n` clients × `feat` dims: all-clients regularizer
    /// values, leave-one-out means, and the table flatten rFedAvg
    /// broadcasts.
    pub fn delta_plane(&mut self, n: usize, feat: usize) {
        let deltas: Vec<Vec<f32>> = (0..n)
            .map(|k| {
                (0..feat)
                    .map(|j| ((k * feat + j) as f32 * 0.13).sin())
                    .collect()
            })
            .collect();
        self.time("mmd.stats_all_k_s", || {
            black_box(MmdStats::new(black_box(&deltas)).regularizer_values());
        });
        let mut table = DeltaTable::new(n, feat);
        for (k, d) in deltas.iter().enumerate() {
            table.set_from_slice(k, d);
        }
        self.time("delta.means_excluding_s", || {
            black_box(table.means_excluding_initialized());
        });
        let mut flat = Vec::new();
        self.time("delta.flatten_s", || table.flattened_into(&mut flat));
    }

    /// One fold of `m` uploads of `dim` floats; `reversed` pushes the slots
    /// last-first, the worst case for the reduction tree's leaf stash.
    pub fn fold(&mut self, name: &str, m: usize, dim: usize, reversed: bool) {
        let weights = vec![1.0 / m as f32; m];
        let selected: Vec<usize> = (0..m).collect();
        let upload: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.01).cos()).collect();
        let mut agg = StreamingAggregator::default();
        self.time(name, || {
            agg.reset_for_selection(dim, &weights, &selected);
            for i in 0..m {
                let slot = if reversed { m - 1 - i } else { i };
                agg.push(slot, black_box(&upload));
            }
            let avg = agg.finish().expect("every slot folded");
            agg.donate(avg);
        });
    }

    /// The in-process wire: one model broadcast plus one upload through the
    /// metered perfect transport.
    pub fn perfect_roundtrip(&mut self, dim: usize) {
        let params: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.02).sin()).collect();
        let mut transport = PerfectTransport::new();
        self.time("transport.perfect_roundtrip_s", || {
            black_box(transport.broadcast(MsgKind::ModelDown, &[0], black_box(&params)));
            black_box(transport.send(MsgKind::ModelUp, 0, &params));
        });
    }

    /// Global evaluation on the federation's own test set.
    pub fn eval(&mut self, fed: &mut Federation) {
        self.time("eval.global_s", || {
            black_box(fed.evaluate_global());
        });
    }

    /// The compression stage at `dim` floats under `policy`: the client's
    /// error-feedback compress, the server's decode, the frame codec, and
    /// the exact dense ÷ compressed wire ratio.
    pub fn compress(&mut self, policy: Compression, dim: usize) {
        let global: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.003).sin()).collect();
        let params: Vec<f32> = global.iter().map(|g| g + 0.01 * g.cos()).collect();
        let (mut residual, mut update, mut recon) = (Vec::new(), Vec::new(), Vec::new());
        let mut payload = CompressedVec::default();
        self.time("compress.ef_update_s", || {
            ef_compress_update(
                policy,
                black_box(&params),
                &global,
                &mut residual,
                &mut update,
                &mut recon,
                &mut payload,
            );
        });
        let mut decoded = Vec::new();
        self.time("compress.decode_s", || {
            assert!(decode_upload_into(
                policy,
                black_box(&payload),
                &global,
                &mut decoded
            ));
        });
        let mut body = Vec::new();
        let mut back = CompressedVec::default();
        self.time("compress.frame_codec_s", || {
            payload.encode_into(&mut body);
            assert!(back.decode_from(black_box(&body)));
        });
        self.out.put(
            "compress.ratio",
            wire_size(dim) as f64 / crate::ledger::compressed_bytes(policy, dim) as f64,
        );
    }

    /// Socket framing at a `dim`-float payload and the control codec.
    pub fn framing(&mut self, dim: usize) {
        let report = ControlMsg::Report {
            loss: 1.5,
            reg_loss: 0.25,
            steps: 10,
            examples: 160,
        };
        let mut body = Vec::new();
        self.time("message.control_codec_s", || {
            report.encode_body(&mut body);
            black_box(ControlMsg::decode_body(report.tag(), black_box(&body)).expect("decodes"));
        });
        let values: Vec<f32> = (0..dim).map(|i| i as f32 * 0.5 - 3.0).collect();
        let mut wire = Vec::new();
        encode_f32_into(&mut wire, &values);
        let tag = MsgKind::ModelDown.tag();
        let mut pipe: Vec<u8> = Vec::new();
        self.time("socket.frame_rw_s", || {
            pipe.clear();
            write_frame(&mut pipe, tag, black_box(&wire)).expect("vec write");
            black_box(read_frame(&mut pipe.as_slice()).expect("own frame reads"));
        });
        self.time("socket.encode_frame_s", || {
            black_box(encode_frame(tag, black_box(&wire)));
        });
    }
}

/// One `[batch, …]` input and its labels taken from the head of `data`.
pub fn head_batch(data: &rfl_data::Dataset, batch: usize) -> (Input, Vec<usize>) {
    let idx: Vec<usize> = (0..batch.min(data.len())).collect();
    let part = data.select(&idx);
    (
        rfl_core::eval::to_input(part.examples()),
        part.labels().to_vec(),
    )
}

/// A fresh client replica over `data`, built the way `Federation::new`
/// builds its own.
pub fn replica(
    data: &rfl_data::Dataset,
    model: ModelFactory,
    optimizer: OptimizerFactory,
    batch_size: usize,
    clip: Option<f32>,
    seed: u64,
) -> Client {
    let mut c = Client::new(
        0,
        model.build(seed),
        data.clone(),
        optimizer.build(),
        batch_size,
        seed,
    );
    c.set_clip_grad_norm(clip);
    c
}
