//! The `Relu` → `MaxPool2d::new(2)` composition that
//! `relu_maxpool2x2_into` and its backward replaced, as the two layers ran
//! it: ReLU writes its output and its mask, the textbook max-pool starts
//! every window from `−inf` at its first element and takes strictly greater
//! elements in window order, recording flat input indices; the backward
//! scatters `dout` with `+=` into a zeroed buffer through those indices and
//! masks the result. It defines every bit the fused kernel may produce.
//! (`rfl-nn`'s `cnn_oracle.rs` includes this file by path.)

#![allow(dead_code)]

/// One training forward of the composition: the pooled output and what the
/// two backwards read.
pub struct Forward {
    pub y: Vec<f32>,
    /// `Relu`'s mask: `x > 0`.
    pub mask: Vec<bool>,
    /// The flat input index of each window's maximum.
    pub argmax: Vec<u32>,
}

/// The output dims of a 2×2, stride-2 pool of NCHW `dims`.
pub fn out_dims([n, c, h, w]: [usize; 4]) -> [usize; 4] {
    [n, c, (h - 2) / 2 + 1, (w - 2) / 2 + 1]
}

/// `Relu::forward_into` with `train = true`: the output and the mask.
pub fn relu(x: &[f32]) -> (Vec<f32>, Vec<bool>) {
    let mut r = vec![0.0f32; x.len()];
    let mut mask = vec![false; x.len()];
    for ((o, &v), m) in r.iter_mut().zip(x).zip(mask.iter_mut()) {
        *m = v > 0.0;
        *o = if *m { v } else { 0.0 };
    }
    (r, mask)
}

/// `Relu::backward_into`.
pub fn relu_backward(dy: &[f32], mask: &[bool]) -> Vec<f32> {
    dy.iter()
        .zip(mask)
        .map(|(&g, &m)| if m { g } else { 0.0 })
        .collect()
}

/// The textbook max-pool, window 2, stride 2: the output and the flat input
/// index of each window's maximum.
pub fn maxpool(x: &[f32], dims: [usize; 4]) -> (Vec<f32>, Vec<u32>) {
    let [n, c, h, w] = dims;
    let [_, _, oh, ow] = out_dims(dims);
    let (mut y, mut argmax) = (Vec::new(), Vec::new());
    for plane in 0..n * c {
        for oy in 0..oh {
            for ox in 0..ow {
                let first = plane * h * w + oy * 2 * w + ox * 2;
                let (mut best, mut at) = (f32::NEG_INFINITY, first);
                for ky in 0..2 {
                    for kx in 0..2 {
                        let i = first + ky * w + kx;
                        if x[i] > best {
                            best = x[i];
                            at = i;
                        }
                    }
                }
                y.push(best);
                argmax.push(at as u32);
            }
        }
    }
    (y, argmax)
}

/// `maxpool2d_backward_into`: `dy` scattered with `+=` through `argmax`
/// into a zeroed buffer of `len`.
pub fn maxpool_backward(len: usize, dy: &[f32], argmax: &[u32]) -> Vec<f32> {
    assert_eq!(dy.len(), argmax.len(), "argmax length mismatch");
    let mut dx = vec![0.0f32; len];
    for (g, &i) in dy.iter().zip(argmax) {
        dx[i as usize] += g;
    }
    dx
}

/// The composition's training forward.
pub fn forward(x: &[f32], dims: [usize; 4]) -> Forward {
    let (r, mask) = relu(x);
    let (y, argmax) = maxpool(&r, dims);
    Forward { y, mask, argmax }
}

/// The composition's input gradient for the output gradient `dy`.
pub fn backward(f: &Forward, dy: &[f32]) -> Vec<f32> {
    relu_backward(&maxpool_backward(f.mask.len(), dy, &f.argmax), &f.mask)
}
