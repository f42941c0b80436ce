//! Scenario construction: benchmark family × federation geometry.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfl_core::{Federation, FlConfig, ModelFactory, OptimizerFactory};
use rfl_data::synth::femnist::FemnistSpec;
use rfl_data::synth::gaussian::GaussianMixtureSpec;
use rfl_data::synth::image::SynthImageSpec;
use rfl_data::synth::text::SynthTextSpec;
use rfl_data::{partition, FederatedData};
use rfl_nn::{CnnConfig, LstmConfig};
use rfl_trace::Tracer;

use crate::args::Scale;

/// Which benchmark family a scenario draws from.
#[derive(Clone, Copy, Debug)]
pub enum ScenarioKind {
    MnistLike,
    CifarLike,
    /// `iid = true` reshuffles the user data over the clients.
    Sent140 {
        iid: bool,
    },
    Femnist,
    /// Gaussian mixture with one random feature shift per client — the
    /// strongly convex objective of the Thm. 1–2 check.
    Convex,
}

/// A fully specified experiment scenario. `build_data(seed)` regenerates
/// the federated dataset for one repetition; model/optimizer factories and
/// the algorithm-specific hyper-parameters ride along.
#[derive(Clone, Debug)]
pub struct Scenario {
    pub name: String,
    pub kind: ScenarioKind,
    pub n_clients: usize,
    pub samples_per_client: usize,
    pub test_samples: usize,
    /// Label-skew similarity `s` for the image benchmarks (ignored by the
    /// naturally partitioned families).
    pub similarity: f64,
    pub model: ModelFactory,
    pub optimizer: OptimizerFactory,
    /// rFedAvg / rFedAvg+ regularization weight λ.
    pub lambda: f32,
    /// FedProx proximal coefficient μ.
    pub prox_mu: f32,
    /// q-FedAvg fairness parameter q.
    pub qfed_q: f32,
}

impl Scenario {
    /// Regenerates the federated dataset for one repetition.
    pub fn build_data(&self, seed: u64) -> FederatedData {
        let mut rng = StdRng::seed_from_u64(match self.kind {
            // The convex check has always drawn from the bare seed.
            ScenarioKind::Convex => seed,
            _ => seed.wrapping_mul(0xA24B_AED4_963E_E407),
        });
        let total = self.n_clients * self.samples_per_client;
        match self.kind {
            ScenarioKind::MnistLike | ScenarioKind::CifarLike => {
                let spec = match self.kind {
                    ScenarioKind::MnistLike => SynthImageSpec::mnist_like(),
                    _ => SynthImageSpec::cifar_like(),
                };
                let pool = spec.generate(total, &mut rng);
                let parts =
                    partition::similarity(pool.labels(), self.n_clients, self.similarity, &mut rng);
                let test = spec.generate(self.test_samples, &mut rng);
                FederatedData::from_partition(&pool, &parts, test)
            }
            ScenarioKind::Sent140 { iid } => {
                let spec = SynthTextSpec::sent140_like();
                let (pool, users) = spec.generate_users(self.n_clients, total, &mut rng);
                let parts = if iid {
                    partition::iid(pool.len(), self.n_clients, &mut rng)
                } else {
                    partition::by_user(&users)
                };
                // Held-out users form the test set.
                let (test, _) =
                    spec.generate_users(self.n_clients.max(4) / 4, self.test_samples, &mut rng);
                FederatedData::from_partition(&pool, &parts, test)
            }
            ScenarioKind::Femnist => {
                let spec = FemnistSpec::default_spec();
                let (pool, users) = spec.generate_writers(self.n_clients, total, &mut rng);
                let parts = partition::by_user(&users);
                let (test, _) =
                    spec.generate_writers(self.n_clients.max(4) / 4, self.test_samples, &mut rng);
                FederatedData::from_partition(&pool, &parts, test)
            }
            ScenarioKind::Convex => {
                let spec = GaussianMixtureSpec::default_spec();
                let clients = (0..self.n_clients)
                    .map(|_| {
                        let shift = spec.random_shift(1.0, &mut rng);
                        spec.generate(self.samples_per_client, Some(&shift), &mut rng)
                    })
                    .collect();
                let test = spec.generate(self.test_samples, None, &mut rng);
                FederatedData { clients, test }
            }
        }
    }

    /// Builds the federation of one repetition over freshly generated data,
    /// with `tracer` installed — the only place the harness builds one, so
    /// no experiment can forget the journal.
    pub fn federation(&self, cfg: &FlConfig, seed: u64, tracer: &Tracer) -> Federation {
        let data = self.build_data(seed);
        let mut fed = Federation::new(&data, self.model, self.optimizer, cfg, seed);
        fed.set_tracer(tracer.clone());
        fed
    }
}

/// Geometry presets per scale: `(silo N, device N, samples/client, rounds)`.
fn geometry(scale: Scale) -> (usize, usize, usize, usize) {
    match scale {
        Scale::Quick => (8, 24, 32, 12),
        Scale::Full => (20, 100, 80, 40),
    }
}

/// The paper's cross-silo (`E = 5`, `B = 20`, `SR = 1.0`) or cross-device
/// (`E = 10`, `B = 16`, `SR = 0.2`) configuration at `scale`, seed 0.
pub fn fl_config(scale: Scale, cross_silo: bool) -> FlConfig {
    let (local_steps, batch_size, sample_ratio) = if cross_silo {
        (5, 20, 1.0)
    } else {
        (10, 16, 0.2)
    };
    FlConfig {
        rounds: geometry(scale).3,
        local_steps,
        batch_size,
        sample_ratio,
        eval_every: 1,
        parallel: true,
        clip_grad_norm: Some(10.0),
        seed: 0,
        delta_probe_batch: None,
        compression: rfl_core::compress::Compression::None,
    }
}

/// What every family shares: the scale's client count for the geometry,
/// shard and test-set sizes (evaluation dominates single-core runtime), SGD
/// at 0.1 and the image benchmarks' λ / μ / q.
fn scenario(
    scale: Scale,
    kind: ScenarioKind,
    family: &str,
    cross_silo: bool,
    variant: &str,
    model: ModelFactory,
) -> Scenario {
    let (silo_n, device_n, samples_per_client, _) = geometry(scale);
    let (setting, n_clients) = if cross_silo {
        ("silo", silo_n)
    } else {
        ("device", device_n)
    };
    Scenario {
        name: format!("{family}/{setting}/{variant}"),
        kind,
        n_clients,
        samples_per_client,
        test_samples: match scale {
            Scale::Quick => 200,
            Scale::Full => 500,
        },
        similarity: 1.0,
        model,
        optimizer: OptimizerFactory::sgd(0.1),
        lambda: 1e-4,
        prox_mu: 1.0,
        qfed_q: 1.0,
    }
}

fn image_scenario(scale: Scale, kind: ScenarioKind, cross_silo: bool, similarity: f64) -> Scenario {
    let (family, cnn) = match kind {
        ScenarioKind::MnistLike => ("mnist-like", CnnConfig::mnist_like()),
        _ => ("cifar-like", CnnConfig::cifar_like()),
    };
    let variant = format!("sim{:.0}%", similarity * 100.0);
    let model = ModelFactory::cnn(cnn);
    Scenario {
        similarity,
        ..scenario(scale, kind, family, cross_silo, &variant, model)
    }
}

/// MNIST-like scenario (`cross_silo = false` gives the cross-device
/// geometry).
pub fn mnist_scenario(scale: Scale, cross_silo: bool, similarity: f64) -> Scenario {
    image_scenario(scale, ScenarioKind::MnistLike, cross_silo, similarity)
}

/// CIFAR10-like scenario.
pub fn cifar_scenario(scale: Scale, cross_silo: bool, similarity: f64) -> Scenario {
    image_scenario(scale, ScenarioKind::CifarLike, cross_silo, similarity)
}

/// Sent140-like scenario (LSTM + RMSProp, natural or IID partition).
pub fn sent140_scenario(scale: Scale, cross_silo: bool, iid: bool) -> Scenario {
    let kind = ScenarioKind::Sent140 { iid };
    let variant = if iid { "iid" } else { "noniid" };
    let model = ModelFactory::lstm(LstmConfig::sent140_like());
    Scenario {
        optimizer: OptimizerFactory::rmsprop(0.01),
        lambda: 0.1,
        prox_mu: 0.01,
        qfed_q: 1e-4,
        ..scenario(scale, kind, "sent140-like", cross_silo, variant, model)
    }
}

/// FEMNIST-like scenario with `n_clients` writers.
pub fn femnist_scenario(scale: Scale, n_clients: usize) -> Scenario {
    let (kind, model) = (
        ScenarioKind::Femnist,
        ModelFactory::cnn(CnnConfig::femnist_like()),
    );
    Scenario {
        name: format!("femnist-like/{n_clients}clients"),
        n_clients,
        ..scenario(scale, kind, "femnist-like", false, "", model)
    }
}

/// Strongly convex scenario of the Thm. 1–2 check: logistic regression with
/// L2 on Gaussian data, one non-IID feature shift per client.
pub fn convex_scenario() -> Scenario {
    let (kind, model) = (
        ScenarioKind::Convex,
        ModelFactory::linear_net(10, 6, 4, 1e-2),
    );
    Scenario {
        n_clients: 8,
        samples_per_client: 60,
        lambda: 1e-3,
        ..scenario(Scale::Quick, kind, "convex", true, "shift", model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_scenario_builds_expected_federation() {
        let sc = mnist_scenario(Scale::Quick, true, 0.0);
        let data = sc.build_data(0);
        assert_eq!(data.num_clients(), 8);
        assert_eq!(data.test.len(), 200);
        let total: usize = data.clients.iter().map(|c| c.len()).sum();
        assert_eq!(total, 8 * 32);
    }

    #[test]
    fn sent140_noniid_has_quantity_skew_but_iid_does_not() {
        let non = sent140_scenario(Scale::Quick, true, false).build_data(1);
        let iid = sent140_scenario(Scale::Quick, true, true).build_data(1);
        let spread = |d: &FederatedData| {
            let sizes: Vec<usize> = d.clients.iter().map(|c| c.len()).collect();
            *sizes.iter().max().unwrap() - *sizes.iter().min().unwrap()
        };
        assert!(spread(&non) > spread(&iid));
    }

    #[test]
    fn data_is_seed_deterministic() {
        let sc = cifar_scenario(Scale::Quick, true, 0.1);
        let a = sc.build_data(7);
        let b = sc.build_data(7);
        assert_eq!(a.clients[0].labels(), b.clients[0].labels());
        let c = sc.build_data(8);
        assert_ne!(a.clients[0].labels(), c.clients[0].labels());
    }

    #[test]
    fn the_two_geometries_differ_in_three_fields() {
        let (silo, device) = (
            fl_config(Scale::Quick, true),
            fl_config(Scale::Quick, false),
        );
        assert_eq!(
            (silo.local_steps, silo.batch_size, silo.sample_ratio),
            (5, 20, 1.0)
        );
        assert_eq!(
            (device.local_steps, device.batch_size, device.sample_ratio),
            (10, 16, 0.2)
        );
        assert_eq!(silo.rounds, device.rounds);
        assert_eq!(
            cifar_scenario(Scale::Quick, false, 0.1).name,
            "cifar-like/device/sim10%"
        );
    }

    #[test]
    fn femnist_builds_with_requested_writers() {
        let sc = femnist_scenario(Scale::Quick, 10);
        let data = sc.build_data(2);
        assert_eq!(data.num_clients(), 10);
    }
}
