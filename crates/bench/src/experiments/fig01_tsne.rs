//! Fig. 1: t-SNE visualization of last-FC-layer features under FedAvg, on
//! the CIFAR10-like benchmark, IID vs non-IID partition.
//!
//! Reproduces the paper's qualitative finding: after FedAvg training (plus
//! one local phase, so each client holds a *local* model), the feature
//! distributions that different clients produce for the same classes are
//! consistent under the IID split but diverge under the non-IID split.
//!
//! Methodology: pick the three clients holding the most class-0/1/2 data,
//! embed the union of their class-0/1/2 features with ONE t-SNE (shared
//! coordinates), render one ASCII panel per client, and quantify the
//! divergence as the mean distance between the same class's centroids
//! across clients, normalized by within-class spread.

use crate::args::{write_output, ExpArgs};
use crate::setup::{cifar_scenario, fl_config};
use rfl_core::prelude::*;
use rfl_core::LocalRule;
use rfl_metrics::TextTable;
use rfl_tensor::Tensor;
use rfl_viz::scatter::scatter_csv;
use rfl_viz::{render_scatter, Tsne, TsneConfig};

struct Panel {
    client: usize,
    rows: Vec<usize>,   // indices into the joint feature matrix
    labels: Vec<usize>, // class labels of those rows
}

/// Trains FedAvg + one local phase; returns the joint feature matrix of the
/// three chosen clients' class-0/1/2 samples plus per-client row indices.
fn joint_features(similarity: f64, args: &ExpArgs) -> (Tensor, Vec<Panel>, Vec<Vec<f32>>) {
    let sc = cifar_scenario(args.scale, true, similarity);
    let cfg = fl_config(args.scale, true);
    let mut fed = sc.federation(&cfg, 5, &args.tracer);
    Trainer::new(cfg).run(&mut FedAvg::new(), &mut fed);
    // One extra local phase → divergent local models under non-IID.
    let selected: Vec<usize> = (0..fed.num_clients()).collect();
    fed.broadcast_params(&selected);
    let rules = vec![LocalRule::Plain; selected.len()];
    fed.train_selected(&selected, &rules, cfg.local_steps);

    // Client with the most samples of class c, for c = 0, 1, 2, read off
    // the federation's shards regenerated from its seed: no client wakes.
    let counts: Vec<Vec<usize>> = (sc.build_data(5).clients.iter())
        .map(|shard| shard.class_counts())
        .collect();
    let chosen: Vec<usize> = (0..3)
        .map(|class| (0..counts.len()).max_by_key(|&k| counts[k][class]).unwrap())
        .collect();

    // The paper's core quantity: each client's δ over its FULL local data,
    // computed with its (divergent) local model.
    let deltas: Vec<Vec<f32>> = chosen
        .iter()
        .map(|&k| fed.with_client(k, |c| c.compute_delta(64)))
        .collect();

    let mut all_rows: Vec<Vec<f32>> = Vec::new();
    let mut panels = Vec::new();
    let mut dim = 0usize;
    for &k in &chosen {
        let (feats, labels) = fed.with_client(k, |c| c.compute_features(200));
        dim = feats.dims()[1];
        let mut rows = Vec::new();
        let mut panel_labels = Vec::new();
        for (i, &y) in labels.iter().enumerate() {
            if y <= 2 {
                rows.push(all_rows.len());
                panel_labels.push(y);
                all_rows.push(feats.data()[i * dim..(i + 1) * dim].to_vec());
            }
        }
        panels.push(Panel {
            client: k,
            rows,
            labels: panel_labels,
        });
    }
    let n = all_rows.len();
    let mut joint = Tensor::zeros(&[n.max(1), dim.max(1)]);
    for (r, row) in all_rows.iter().enumerate() {
        joint.data_mut()[r * dim..(r + 1) * dim].copy_from_slice(row);
    }
    (joint, panels, deltas)
}

/// Cross-client inconsistency, measured in the raw feature space (t-SNE
/// coordinates are not comparable across configurations): mean distance
/// between the SAME class's centroids across clients, normalized by the
/// mean within-class spread.
fn cross_client_divergence(features: &Tensor, panels: &[Panel]) -> f64 {
    let d = features.dims()[1];
    struct Cent {
        client: usize,
        class: usize,
        mean: Vec<f64>,
        spread: f64,
    }
    let mut centroids: Vec<Cent> = Vec::new();
    for p in panels {
        for class in 0..3usize {
            let pts: Vec<usize> = p
                .rows
                .iter()
                .zip(&p.labels)
                .filter(|(_, &y)| y == class)
                .map(|(&r, _)| r)
                .collect();
            if pts.len() < 3 {
                continue;
            }
            let mut mean = vec![0.0f64; d];
            for &r in &pts {
                for (m, j) in mean.iter_mut().zip(0..d) {
                    *m += features.at(&[r, j]) as f64;
                }
            }
            for m in &mut mean {
                *m /= pts.len() as f64;
            }
            let spread = pts
                .iter()
                .map(|&r| {
                    (0..d)
                        .map(|j| (features.at(&[r, j]) as f64 - mean[j]).powi(2))
                        .sum::<f64>()
                        .sqrt()
                })
                .sum::<f64>()
                / pts.len() as f64;
            centroids.push(Cent {
                client: p.client,
                class,
                mean,
                spread,
            });
        }
    }
    let mut dist_sum = 0.0;
    let mut spread_sum = 0.0;
    let mut pairs = 0usize;
    for i in 0..centroids.len() {
        for j in (i + 1)..centroids.len() {
            let (a, b) = (&centroids[i], &centroids[j]);
            if a.class == b.class && a.client != b.client {
                dist_sum += a
                    .mean
                    .iter()
                    .zip(&b.mean)
                    .map(|(x, y)| (x - y) * (x - y))
                    .sum::<f64>()
                    .sqrt();
                spread_sum += (a.spread + b.spread) / 2.0;
                pairs += 1;
            }
        }
    }
    if pairs == 0 || spread_sum == 0.0 {
        return f64::NAN; // no shared classes (extreme non-IID): maximal inconsistency
    }
    dist_sum / spread_sum
}

pub(crate) fn run(args: &ExpArgs) {
    println!(
        "== Fig. 1: t-SNE of FedAvg features ({:?}) ==\n",
        args.scale
    );
    let mut summary = TextTable::new(&[
        "partition",
        "mean pairwise MMD² of client δ (Eq. 2)",
        "shared-class divergence",
        "classes per client",
    ]);
    for (tag, sim) in [("iid", 1.0f64), ("noniid", 0.0)] {
        eprintln!("training FedAvg on cifar-like ({tag}) ...");
        let (joint, panels, deltas) = joint_features(sim, args);
        if joint.dims()[0] < 10 {
            println!("({tag}: too few class-0/1/2 samples)");
            continue;
        }
        let tsne = Tsne::new(TsneConfig {
            perplexity: (joint.dims()[0] as f64 / 6.0).clamp(5.0, 25.0),
            iterations: 250,
            ..TsneConfig::default()
        });
        let emb = tsne.embed(&joint);
        let mut class_counts = Vec::new();
        for p in &panels {
            let mut rows = Tensor::zeros(&[p.rows.len().max(1), 2]);
            for (i, &r) in p.rows.iter().enumerate() {
                rows.data_mut()[i * 2] = emb.at(&[r, 0]);
                rows.data_mut()[i * 2 + 1] = emb.at(&[r, 1]);
            }
            println!(
                "Fig. 1 panel — {tag}, client #{} ({} class-0/1/2 samples):",
                p.client,
                p.rows.len()
            );
            if !p.rows.is_empty() {
                println!("{}", render_scatter(&rows, &p.labels, 56, 14));
                write_output(
                    args,
                    &format!("fig01_{tag}_client{}.csv", p.client),
                    &scatter_csv(&rows, &p.labels),
                );
            }
            let mut classes = p.labels.clone();
            classes.sort_unstable();
            classes.dedup();
            class_counts.push(classes.len());
        }
        let div = cross_client_divergence(&joint, &panels);
        // Mean pairwise ‖δ_i − δ_j‖² — exactly the discrepancy the
        // regularizer minimizes.
        let mut mmd_sum = 0.0f64;
        let mut pairs = 0usize;
        for i in 0..deltas.len() {
            for j in (i + 1)..deltas.len() {
                mmd_sum += rfl_core::mmd::mmd_sq(&deltas[i], &deltas[j]) as f64;
                pairs += 1;
            }
        }
        summary.row(&[
            tag.to_string(),
            format!("{:.3}", mmd_sum / pairs as f64),
            if div.is_nan() {
                "∞ (no shared classes)".to_string()
            } else {
                format!("{div:.2}")
            },
            format!("{class_counts:?}"),
        ]);
    }
    println!("{}", summary.render());
    println!(
        "(paper's finding: IID clients produce consistent feature\n\
         distributions; non-IID clients' diverge — here visible as a larger\n\
         pairwise MMD between client δ maps and fewer classes per client)"
    );
}
