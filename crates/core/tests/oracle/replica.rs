//! The oracle of the in-process client lifecycle: `ReplicaPlane` keeps a
//! live replica of every client all run and serves each request in place,
//! which is what an in-process client whose state never leaves memory
//! would answer. `plane::LocalPlane` wakes a client for each request and
//! puts it back to sleep without its parameters; `lifecycle.rs` beside this
//! file (rfl-core's `federation::lifecycle_tests`) drives both with the
//! request sequences a round driver issues and compares every frame, δ map,
//! report, loss and byte count bit for bit.
//!
//! Included into rfl-core's unit tests by `#[path]`: it reads client state
//! the crate does not export (the learning rate, the local loss, the
//! control variate) and answers with the client half every back-end shares
//! (`answer_upload`, `answer_delta`). SCAFFOLD's control update has no
//! remote half yet, so its option-II arithmetic is written here again, per
//! element, from the frame the upload claim built.

use crate::client::{Client, LocalReport};
use crate::comm::{Payload, Transport};
use crate::compress::{decode_plain_into, decode_upload_into, CompressedVec, Compression};
use crate::dp::DpConfig;
use crate::federation::{FlConfig, ModelFactory, OptimizerFactory};
use crate::plane::{answer_delta, answer_upload, Pull, Scratch, EVAL_BATCH};
use crate::rules::LocalRule;
use rand::rngs::StdRng;
use rfl_data::FederatedData;
use std::sync::Arc;

/// A SCAFFOLD training: the delivered `c`, the steps run, the rate.
type Trained = (Arc<Vec<f32>>, usize, f32);

/// Every client live, behind a simulated transport.
pub(crate) struct ReplicaPlane {
    clients: Vec<Client>,
    pub(crate) transport: Box<dyn Transport>,
    policy: Compression,
    /// Whether a client trained since the last broadcast and its upload was
    /// not claimed yet.
    trained: Vec<bool>,
    /// The last δ request's maps by client, until claimed; a broadcast or
    /// the next δ request voids them.
    maps: Vec<Option<Vec<f32>>>,
    /// What a client trained under SCAFFOLD answers its control upload
    /// from — the delivered `c`, its step count and learning rate — until
    /// its upload is claimed.
    scaffold: Vec<Option<Trained>>,
    /// `Δ` and `c_k⁺` of a client trained under SCAFFOLD, from its upload
    /// claim until its control claim.
    controls: Vec<Option<(Vec<f32>, Vec<f32>)>>,
    scratch: Scratch,
    rt: CompressedVec,
}

impl ReplicaPlane {
    /// Every client of `data` as a federation over it first wakes it: the
    /// initial global derived from `seed`, its own optimizer state, RNG
    /// stream and gradient clip.
    pub(crate) fn new(
        data: &FederatedData,
        model: ModelFactory,
        optimizer: OptimizerFactory,
        cfg: &FlConfig,
        seed: u64,
        transport: Box<dyn Transport>,
    ) -> Self {
        let clients = (data.clients.iter().enumerate())
            .map(|(k, shard)| {
                let (model, opt) = (model.build(seed), optimizer.build());
                let mut c = Client::new(k, model, shard.clone(), opt, cfg.batch_size, seed);
                c.set_clip_grad_norm(cfg.clip_grad_norm);
                c
            })
            .collect();
        ReplicaPlane {
            clients,
            transport,
            policy: cfg.compression,
            trained: vec![false; data.clients.len()],
            maps: vec![None; data.clients.len()],
            scaffold: vec![None; data.clients.len()],
            controls: vec![None; data.clients.len()],
            scratch: Scratch::default(),
            rt: CompressedVec::default(),
        }
    }

    /// A `ModelDown` broadcast: every client it reaches installs it.
    pub(crate) fn broadcast(&mut self, selected: &[usize], global: &[f32]) -> Vec<usize> {
        let kind = crate::comm::MsgKind::ModelDown;
        let bd = self.transport.broadcast(kind, selected, global);
        let delivered = bd.delivered_clients(selected);
        for &k in &delivered {
            self.clients[k].write_params(&bd.data);
        }
        self.trained.fill(false);
        self.maps.fill(None);
        self.scaffold.fill(None);
        self.controls.fill(None);
        delivered
    }

    pub(crate) fn train(
        &mut self,
        selected: &[usize],
        rules: &[LocalRule],
        steps: usize,
    ) -> Vec<LocalReport> {
        self.trained.fill(false);
        self.scaffold.fill(None);
        self.controls.fill(None);
        (selected.iter().zip(rules))
            .map(|(&k, rule)| {
                self.trained[k] = true;
                let report = self.clients[k].train_local(steps, rule);
                if let LocalRule::Scaffold { c } = rule {
                    self.scaffold[k] = Some((c.clone(), report.steps, self.clients[k].lr()));
                }
                report
            })
            .collect()
    }

    /// Client `k`'s upload as the server decodes it; `None` when lost.
    /// Panics when `k` did not train since the last broadcast or its upload
    /// was claimed already.
    pub(crate) fn claim_upload(&mut self, k: usize, global: &[f32]) -> Option<Vec<f32>> {
        let owed = std::mem::take(&mut self.trained[k]);
        assert!(owed, "an upload claim follows its request");
        let policy = self.policy;
        let kind = Pull::Upload.kind(policy.is_enabled());
        let frame = answer_upload(&mut self.clients[k], global, policy, &mut self.scratch);
        // What the upload delivers, as the server decodes it.
        let mut delivers = Vec::new();
        match &frame {
            Payload::Dense(values) => delivers.extend_from_slice(values),
            Payload::Compressed(payload) => {
                assert!(decode_upload_into(policy, payload, global, &mut delivers))
            }
            Payload::Bytes(_) => unreachable!("an answer is values"),
        }
        let (transport, rt) = (&mut self.transport, &mut self.rt);
        let arrived = match frame {
            Payload::Dense(values) => transport.send(kind, k, values).data,
            Payload::Compressed(payload) => {
                let link = transport.send_compressed(kind, k, payload, rt);
                let mut out = Vec::new();
                (link.delivered && decode_upload_into(policy, rt, global, &mut out)).then_some(out)
            }
            Payload::Bytes(_) => unreachable!("an answer is values"),
        };
        if let Some((c, steps, lr)) = self.scaffold[k].take() {
            let (scale, c_k) = (1.0 / (steps as f32 * lr), self.clients[k].control());
            let next: Vec<f32> = (0..c.len())
                .map(|i| c_k[i] - c[i] + scale * (global[i] - delivers[i]))
                .collect();
            let delta = (0..c.len()).map(|i| next[i] - c_k[i]).collect();
            self.controls[k] = Some((delta, next));
        }
        arrived
    }

    /// Client `k`'s control `Δ` as the server receives it; `None` when
    /// lost. A delivered one commits `c_k⁺`. Panics when `k`'s upload did
    /// not follow a SCAFFOLD training since the last broadcast, or its `Δ`
    /// was claimed already.
    pub(crate) fn claim_control(&mut self, k: usize) -> Option<Vec<f32>> {
        let control = self.controls[k].take();
        let (delta, next) = control.expect("a control claim follows its request");
        let arrived = self
            .transport
            .send(Pull::Control.kind(false), k, &delta)
            .data;
        if arrived.is_some() {
            *self.clients[k].control() = next;
        }
        arrived
    }

    /// The δ request: every selected client's map at the parameters it
    /// holds, kept for the claims (each at most once).
    pub(crate) fn probe(&mut self, selected: &[usize], batch: usize) -> Vec<Vec<f32>> {
        self.maps.fill(None);
        let maps: Vec<Vec<f32>> = (selected.iter())
            .map(|&k| self.clients[k].compute_delta(batch))
            .collect();
        for (&k, map) in selected.iter().zip(&maps) {
            self.maps[k] = Some(map.clone());
        }
        maps
    }

    /// Client `k`'s δ frame as the server decodes it; `None` when lost.
    /// Panics when no δ request left a map for `k`.
    pub(crate) fn claim_delta(
        &mut self,
        k: usize,
        dp: Option<(DpConfig, &mut StdRng)>,
    ) -> Option<Vec<f32>> {
        let map = self.maps[k].take().expect("a δ claim follows its request");
        let (policy, dim) = (self.policy, map.len());
        let kind = Pull::Delta { dp: None }.kind(policy.is_enabled());
        self.scratch.values = map;
        let frame = answer_delta(dp, policy, &mut self.scratch);
        let (transport, rt) = (&mut self.transport, &mut self.rt);
        match frame {
            Payload::Dense(values) => transport.send(kind, k, values).data,
            Payload::Compressed(payload) => {
                let link = transport.send_compressed(kind, k, payload, rt);
                let mut out = Vec::new();
                (link.delivered && decode_plain_into(policy, rt, dim, &mut out)).then_some(out)
            }
            Payload::Bytes(_) => unreachable!("an answer is values"),
        }
    }

    pub(crate) fn variates(&mut self, selected: &[usize]) -> Vec<Vec<f32>> {
        (selected.iter())
            .map(|&k| self.clients[k].control().clone())
            .collect()
    }

    pub(crate) fn eval_local(&mut self, selected: &[usize]) -> Vec<(f32, f32)> {
        (selected.iter())
            .map(|&k| {
                let c = &mut self.clients[k];
                (c.evaluate_local(EVAL_BATCH).loss, c.lr())
            })
            .collect()
    }

    pub(crate) fn set_lr(&mut self, k: usize, lr: f32) {
        self.clients[k].set_lr(lr);
    }
}
