//! The image generators' output as bits, on every SIMD tier this CPU runs.
//!
//! A binary of its own with one test, because it switches the process-wide
//! tier: the default and `RFL_SIMD=0` legs of a test run reach only the
//! widest and the scalar tier, and this reaches every tier in between.
//! Each hash folds the images, the labels (and writer ids), and the
//! generator's next word after the call, so a draw added, dropped or moved
//! shows even where it left the pixels alone.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rfl_data::synth::femnist::FemnistSpec;
use rfl_data::synth::image::SynthImageSpec;
use rfl_data::{Dataset, Examples};
use rfl_tensor::simd::{set_simd_tier, simd_tier, Tier};

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The dataset's pixels and labels, then `extra` (writer ids), then the
/// generator's next word.
fn fingerprint(ds: &Dataset, extra: &[usize], rng: &mut StdRng) -> u64 {
    let Examples::Images(x) = ds.examples() else {
        unreachable!()
    };
    let pixels = x.data().iter().map(|v| v.to_bits() as u64);
    let ids = ds.labels().iter().chain(extra).map(|&y| y as u64);
    fnv(pixels.chain(ids).chain([rng.next_u64()]))
}

/// `(generator, seed, hash)` for every generator at seeds 21 and 22.
fn fingerprints() -> Vec<(&'static str, u64, u64)> {
    let mut got = Vec::new();
    for seed in [21, 22] {
        let images = [
            ("mnist_like", SynthImageSpec::mnist_like()),
            ("cifar_like", SynthImageSpec::cifar_like()),
        ];
        for (name, spec) in images {
            let mut rng = StdRng::seed_from_u64(seed);
            let ds = spec.generate(50, &mut rng);
            got.push((name, seed, fingerprint(&ds, &[], &mut rng)));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let (ds, users) = FemnistSpec::default_spec().generate_writers(6, 50, &mut rng);
        got.push(("femnist", seed, fingerprint(&ds, &users, &mut rng)));
    }
    got
}

#[test]
fn image_generators_match_their_recorded_bits_on_every_tier() {
    // Recorded while every image pixel still drew its own `normal_sample`.
    let recorded: Vec<(&str, u64, u64)> = vec![
        ("mnist_like", 21, 0x5766_acd5_88a6_9f21),
        ("cifar_like", 21, 0xa181_6b5c_1a4e_90a1),
        ("femnist", 21, 0xd98b_f006_7758_fc8b),
        ("mnist_like", 22, 0x0a0e_c841_9b2a_5d70),
        ("cifar_like", 22, 0xc820_6ff5_d018_92ac),
        ("femnist", 22, 0x7621_2f28_364d_f7fe),
    ];
    let selected = simd_tier();
    for tier in Tier::ALL {
        if !set_simd_tier(tier) {
            eprintln!("synth_fingerprints: skipped the {} tier", tier.name());
            continue;
        }
        let got = fingerprints();
        assert_eq!(got, recorded, "{} tier: {got:#018x?}", tier.name());
    }
    set_simd_tier(selected);
}
