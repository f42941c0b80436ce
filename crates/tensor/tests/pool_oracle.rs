//! The fused ReLU and 2×2 max-pool (`relu_maxpool2x2_into` and its
//! backward), on every tier, against the `Relu` → `MaxPool2d` composition it
//! replaced (`oracle/pool.rs`), **bit for bit**: the output and the input
//! gradient, on ragged NCHW shapes (odd heights and widths, output widths
//! that do and do not fill the vector tiers' groups), inputs with NaN, ±inf,
//! ±0.0, ties and windows with nothing positive, and upstream gradients
//! with ±0.0, NaN and ±inf, into dirty buffers.
//!
//! A NaN gradient is compared as "both NaN": the sign and payload of a NaN
//! sum are unspecified.

mod oracle {
    pub mod pool;
}
mod tiers;

use oracle::pool as old;
use proptest::prelude::*;
use rfl_tensor::simd::{set_simd_tier, Tier};
use rfl_tensor::{relu_maxpool2x2_backward_into, relu_maxpool2x2_into, Tensor};

/// Bits, with every NaN as one pattern.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| {
            if x.is_nan() {
                f32::NAN.to_bits()
            } else {
                x.to_bits()
            }
        })
        .collect()
}

/// The fused forward and backward on every tier this CPU has, into dirty
/// buffers, against the composition.
fn check(x: &[f32], dims: [usize; 4], dy: &[f32]) {
    let want = old::forward(x, dims);
    let want_dx = old::backward(&want, dy);
    let input = Tensor::from_vec(x.to_vec(), &dims);
    let dout = Tensor::from_vec(dy.to_vec(), &old::out_dims(dims));
    let _held = tiers::Settings::hold();
    for tier in tiers::available(&Tier::ALL) {
        assert!(set_simd_tier(tier));
        // Dirty buffers, longer than the results: every cell must be written.
        let outs = want.y.len() + 3;
        let (mut y, mut argmax) = (
            Tensor::from_vec(vec![f32::NAN; outs], &[outs]),
            vec![9; outs],
        );
        relu_maxpool2x2_into(&input, &mut y, &mut argmax);
        assert_eq!(y.dims(), old::out_dims(dims), "{tier:?} {dims:?}");
        assert_eq!(bits(y.data()), bits(&want.y), "{tier:?} {dims:?} output");
        let mut dx = Tensor::from_vec(vec![f32::NAN; x.len() + 3], &[x.len() + 3]);
        relu_maxpool2x2_backward_into(&dims, &dout, &argmax, &mut dx);
        assert_eq!(dx.dims(), dims, "{tier:?} {dims:?}");
        assert_eq!(
            bits(dx.data()),
            bits(&want_dx),
            "{tier:?} {dims:?} input gradient"
        );
    }
}

/// An input value: a special (NaN, ±inf, ±0.0), a small integer (ties, and
/// windows with nothing positive), or any finite or raw float.
fn value() -> impl Strategy<Value = f32> {
    const SPECIALS: [f32; 6] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        0.0,
        -f32::NAN,
    ];
    prop_oneof![
        (0..SPECIALS.len()).prop_map(|i| SPECIALS[i]),
        (-3i32..4).prop_map(|v| v as f32),
        -10.0f32..10.0,
        any::<f32>(),
    ]
}

/// An upstream gradient value, −0.0 among them.
fn gradient() -> impl Strategy<Value = f32> {
    prop_oneof![Just(-0.0f32), Just(0.0f32), -5.0f32..5.0, any::<f32>(),]
}

/// NCHW dims: widths that fill four-window groups (8, 16, 9, 24, …) and
/// ragged ones, odd and even heights.
fn dims() -> impl Strategy<Value = [usize; 4]> {
    let width = prop_oneof![
        2usize..40,
        (1usize..5).prop_map(|k| 8 * k),
        (1usize..5).prop_map(|k| 8 * k + 1)
    ];
    (1usize..4, 1usize..4, 2usize..12, width).prop_map(|(n, c, h, w)| [n, c, h, w])
}

/// A shape, its input (all non-positive in a quarter of the cases) and an
/// upstream gradient.
fn case() -> impl Strategy<Value = ([usize; 4], Vec<f32>, Vec<f32>)> {
    (dims(), 0u8..4).prop_flat_map(|(dims, sign)| {
        let len = dims.iter().product::<usize>();
        let outs = old::out_dims(dims).iter().product::<usize>();
        let x = prop::collection::vec(value(), len).prop_map(move |mut x| {
            if sign == 0 {
                x.iter_mut().for_each(|v| *v = -v.abs());
            }
            x
        });
        (Just(dims), x, prop::collection::vec(gradient(), outs))
    })
}

proptest! {
    #[test]
    fn every_tier_matches_the_composition(case in case()) {
        let (dims, x, dy) = case;
        check(&x, dims, &dy);
    }
}

#[test]
fn pools_known_values() {
    let x = [
        1.0, 2.0, 5.0, 6.0, //
        3.0, 4.0, 7.0, 8.0, //
        -1.0, -2.0, 0.0, 0.5, //
        -3.0, -4.0, 0.25, 0.75,
    ];
    let input = Tensor::from_vec(x.to_vec(), &[1, 1, 4, 4]);
    let (mut y, mut argmax) = (Tensor::scratch(), Vec::new());
    relu_maxpool2x2_into(&input, &mut y, &mut argmax);
    assert_eq!(y.data(), &[4.0, 8.0, 0.0, 0.75]);
    let dout = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
    let mut dx = Tensor::scratch();
    relu_maxpool2x2_backward_into(&[1, 1, 4, 4], &dout, &argmax, &mut dx);
    let mut want = [0.0; 16];
    (want[5], want[7], want[15]) = (1.0, 2.0, 4.0);
    assert_eq!(dx.data(), &want);
}

/// A window's first maximum takes the gradient; a window with nothing
/// positive (all −0.0, NaN or negative) passes none, and a −0.0 upstream
/// gradient lands as +0.0. Widths 8 and 16 run the vector tiers' tiles, and
/// 9 their trailing column.
#[test]
fn ties_dead_windows_and_negative_zero_on_every_tier() {
    for w in [8, 9, 16] {
        let dims = [2, 3, 5, w];
        let len: usize = dims.iter().product();
        let x: Vec<f32> = (0..len)
            .map(|i| match i % 7 {
                0 | 3 => 2.0,
                1 => -0.0,
                2 => f32::NAN,
                4 => -1.0,
                _ => 2.0 - (i % 5) as f32,
            })
            .collect();
        let outs: usize = old::out_dims(dims).iter().product();
        let dy: Vec<f32> = (0..outs)
            .map(|i| if i % 3 == 0 { -0.0 } else { i as f32 })
            .collect();
        check(&x, dims, &dy);
        check(&vec![-0.0; len], dims, &dy);
        check(&vec![f32::NAN; len], dims, &dy);
    }
}

/// The CNNs' shapes at batch 16, 32 and 200: conv1's output (8 × 16 × 16)
/// and conv2's (16 × 8 × 8).
#[test]
fn the_cnn_shapes_on_every_tier() {
    for batch in [16, 32, 200] {
        for dims in [[batch, 8, 16, 16], [batch, 16, 8, 8]] {
            let len: usize = dims.iter().product();
            let x: Vec<f32> = (0..len as u32)
                .map(|i| (i.wrapping_mul(2_654_435_761) >> 20) as f32 / 2048.0 - 1.0)
                .collect();
            let outs: usize = old::out_dims(dims).iter().product();
            let dy: Vec<f32> = (0..outs).map(|i| (i % 17) as f32 - 8.0).collect();
            check(&x, dims, &dy);
        }
    }
}
