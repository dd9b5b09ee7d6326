//! Minimal neural-network substrate: tanh MLPs with manual backprop,
//! flat parameter storage, and the Adam optimizer.
//!
//! The paper's models are tiny — "Our RL model is lightweight, having
//! two-dimensional state space and one-dimensional action space" (§6.4) —
//! so a per-sample forward/backward over `Vec<f64>` is both simple and
//! fast enough (inference is a few thousand flops; the paper reports
//! 2.33 × 10⁶ cycles per inference on a Xeon).
//!
//! Parameters live in one flat `Vec<f64>` (weights then biases, layer by
//! layer), which makes the optimizer and serialization trivial.
//!
//! # The forward kernel
//!
//! A layer is `out = W·prev + b`, then — on a hidden layer — `f64::tanh`
//! in a pass over the finished sums. Every forward pass in the workspace
//! runs one kernel over one layout, [`FrozenMlp`]'s column-major copy of
//! an [`Mlp`]: the rate controller's decisions (10.2 a tick on the
//! 127-service demo), training rollouts and validation, value
//! bootstraps, PPO's old-mean and KL passes, and the training tape.
//! Input `i`'s weights to sixteen consecutive outputs are contiguous, so
//! `acc[k] += col[k] · x[i]` over a block of sixteen sums is a run of
//! packed multiplies and adds on baseline x86-64 SSE2, and a pass
//! without a tape allocates nothing for the 64-wide nets. [`Mlp`]'s own
//! row-major layout is storage only — initialisation, the optimizer, the
//! model JSON and [`Mlp::backward`] read it, no forward pass does — so a
//! trainer freezes its nets again after every optimizer step.
//!
//! The kernel reorders work *across* outputs only. Each output is still
//! `((b + w₀x₀) + w₁x₁) + …`, its own products added to its own bias in
//! index order: a vector lane holds one output's sum, never a share of
//! one. So every sum goes through the same sequence of roundings as in a
//! one-row-at-a-time loop and the result is the same to the bit — which
//! the trained models' decisions, every golden fingerprint and the
//! training runs' reproducibility all rest on. Splitting one output's
//! sum into partial sums (pairwise, or lanes of a vector register),
//! adding the bias last or fusing a multiply-add would be faster still
//! and is not done: the roundings would differ, and every recorded
//! policy output would move. The oracle proptest in this file pins the
//! equality, the tape's every activation included, in `--release` as
//! well.

use rand::rngs::SmallRng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// A multi-layer perceptron with tanh hidden activations and a linear
/// output layer, parameters stored flat. Evaluated through a
/// [`FrozenMlp`] (module docs).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Mlp {
    /// Layer widths, input first: e.g. `[2, 64, 64, 1]`.
    pub dims: Vec<usize>,
    /// All parameters: per layer, row-major `out×in` weights then `out`
    /// biases.
    pub params: Vec<f64>,
}

/// Forward-pass cache needed for backprop.
pub struct Tape {
    /// Activations per layer, `act[0]` = input, `act[L]` = output.
    act: Vec<Vec<f64>>,
}

impl Mlp {
    /// Number of parameters for the given dims. Saturating, so a count
    /// past `usize` (dims read from a file) equals no real length.
    pub fn param_count(dims: &[usize]) -> usize {
        let layer = |w: &[usize]| w[0].saturating_mul(w[1]).saturating_add(w[1]);
        dims.windows(2).map(layer).fold(0, usize::saturating_add)
    }

    /// Xavier-style random initialization.
    pub fn new(dims: &[usize], rng: &mut SmallRng) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let mut params = Vec::with_capacity(Self::param_count(dims));
        for w in dims.windows(2) {
            let (nin, nout) = (w[0], w[1]);
            let std = (2.0 / (nin + nout) as f64).sqrt();
            let dist = Normal::new(0.0, std).expect("valid normal");
            for _ in 0..nin * nout {
                params.push(dist.sample(rng));
            }
            params.extend(std::iter::repeat_n(0.0, nout));
        }
        Mlp {
            dims: dims.to_vec(),
            params,
        }
    }

    /// Whether `params` is the shape `dims` says: what a deserialised
    /// net must pass before [`FrozenMlp`] indexes by it.
    pub(crate) fn check_shape(&self) -> Result<(), String> {
        let (dims, found) = (&self.dims, self.params.len());
        if dims.len() < 2 || dims.contains(&0) {
            return Err(format!("dims {dims:?}: need two or more widths, none 0"));
        }
        match Self::param_count(dims) {
            want if want == found => Ok(()),
            want => Err(format!("dims {dims:?} need {want} params, found {found}")),
        }
    }

    /// The layers' `(nin, nout, weights, biases)` in order. Panics, like
    /// any slice index, on a net whose `params` are shorter than `dims`
    /// says — `check_shape` is what keeps such a net from loading.
    fn layers(&self) -> impl Iterator<Item = (usize, usize, &[f64], &[f64])> {
        let mut rest = self.params.as_slice();
        self.dims.windows(2).map(move |d| {
            let (w, tail) = rest.split_at(d[0] * d[1]);
            let (b, tail) = tail.split_at(d[1]);
            rest = tail;
            (d[0], d[1], w, b)
        })
    }

    /// Backprop `d_out` (∂loss/∂output) through a tape that
    /// [`FrozenMlp::forward_tape`] recorded on this net's current
    /// weights; accumulates parameter gradients into `grad` (same length
    /// as `params`) and returns ∂loss/∂input.
    pub fn backward(&self, tape: &Tape, d_out: &[f64], grad: &mut [f64]) -> Vec<f64> {
        assert_eq!(grad.len(), self.params.len());
        let n_layers = self.dims.len() - 1;
        assert_eq!(d_out.len(), self.dims[n_layers]);
        let mut delta = d_out.to_vec();
        let mut off = Self::param_count(&self.dims);
        for l in (0..n_layers).rev() {
            let (nin, nout) = (self.dims[l], self.dims[l + 1]);
            off -= nin * nout + nout;
            // For hidden layers, delta arrives post-activation; convert
            // through tanh': 1 - y².
            if l + 1 < n_layers {
                let y = &tape.act[l + 1];
                for o in 0..nout {
                    delta[o] *= 1.0 - y[o] * y[o];
                }
            }
            let prev = &tape.act[l];
            // Parameter grads.
            for o in 0..nout {
                let g_row = &mut grad[off + o * nin..off + (o + 1) * nin];
                for i in 0..nin {
                    g_row[i] += delta[o] * prev[i];
                }
            }
            for o in 0..nout {
                grad[off + nin * nout + o] += delta[o];
            }
            // Input grads for the next (shallower) layer.
            let w = &self.params[off..off + nin * nout];
            let mut d_in = vec![0.0; nin];
            for o in 0..nout {
                let row = &w[o * nin..(o + 1) * nin];
                for i in 0..nin {
                    d_in[i] += row[i] * delta[o];
                }
            }
            delta = d_in;
        }
        delta
    }
}

/// Layer widths up to which a forward pass without a tape keeps its
/// scratch on the stack: the committed policies are 64 wide.
const STACK_WIDTH: usize = 64;

/// Outputs [`cols`] advances together: sixteen sums are eight SSE2
/// registers, and the committed 64-wide layers are four such blocks.
const COLS: usize = 16;

/// An [`Mlp`] as every forward pass evaluates it: its weights stored
/// column-major for the vectorised kernel (module docs). Built from the
/// net, again after each change to its weights; the outputs are the
/// one-row-at-a-time loop's to the bit. The inner net has the source's
/// `dims`, and per layer the weights as columns (`wt[i·nout + o] =
/// w[o·nin + i]`), then the biases.
#[derive(Debug)]
pub struct FrozenMlp(Mlp);

impl FrozenMlp {
    /// `net` with each layer's weights transposed into columns.
    pub fn new(net: &Mlp) -> Self {
        let mut params = Vec::with_capacity(net.params.len());
        for (nin, nout, w, b) in net.layers() {
            params.extend((0..nin * nout).map(|j| w[(j % nout) * nin + j / nout]));
            params.extend_from_slice(b);
        }
        let dims = net.dims.clone();
        FrozenMlp(Mlp { dims, params })
    }

    /// The net's outputs at `x`, written to `y`: two scratch buffers
    /// ping-pong between the layers, on the stack up to `STACK_WIDTH`
    /// wide, so the committed nets allocate nothing.
    pub fn forward_into(&self, x: &[f64], y: &mut [f64]) {
        let net = &self.0;
        assert_eq!(x.len(), net.dims[0], "input dim mismatch");
        let n_layers = net.dims.len() - 1;
        let width = net.dims[1..].iter().copied().max().unwrap_or(0);
        let (mut stack, mut heap) = ([0.0; 2 * STACK_WIDTH], Vec::new());
        let scratch = if width <= STACK_WIDTH {
            &mut stack[..]
        } else {
            heap.resize(2 * width, 0.0);
            &mut heap[..]
        };
        let (mut cur, mut next) = scratch.split_at_mut(scratch.len() / 2);
        for (l, (nin, nout, wt, b)) in net.layers().enumerate() {
            let prev = if l == 0 { x } else { &cur[..nin] };
            col_layer(wt, b, prev, &mut next[..nout], l + 1 < n_layers);
            std::mem::swap(&mut cur, &mut next);
        }
        y.copy_from_slice(&cur[..net.dims[n_layers]]);
    }

    /// Forward pass returning the output and the tape the source net's
    /// [`Mlp::backward`] reads: every layer's activations, input first.
    pub fn forward_tape(&self, x: &[f64]) -> (Vec<f64>, Tape) {
        let net = &self.0;
        assert_eq!(x.len(), net.dims[0], "input dim mismatch");
        let n_layers = net.dims.len() - 1;
        let mut act = Vec::with_capacity(n_layers + 1);
        act.push(x.to_vec());
        for (l, (_, nout, wt, b)) in net.layers().enumerate() {
            let mut out = vec![0.0; nout];
            col_layer(wt, b, &act[l], &mut out, l + 1 < n_layers);
            act.push(out);
        }
        let out = act.last().expect("output").clone();
        (out, Tape { act })
    }
}

/// One layer: `out = W·prev + b` for `out.len()` columns of
/// `prev.len()` inputs each, then — on a `hidden` layer; the output is
/// linear — `tanh` in a pass over the finished sums.
fn col_layer(wt: &[f64], b: &[f64], prev: &[f64], out: &mut [f64], hidden: bool) {
    let nout = out.len();
    let blocked = nout - nout % COLS;
    for o in (0..blocked).step_by(COLS) {
        cols::<COLS>(&wt[o..], nout, &b[o..], prev, &mut out[o..]);
    }
    for o in blocked..nout {
        cols::<1>(&wt[o..], nout, &b[o..], prev, &mut out[o..]);
    }
    if hidden {
        out.iter_mut().for_each(|s| *s = s.tanh());
    }
}

/// `K` consecutive outputs, the first at `wt[0]` in a column of stride
/// `nout`: `K` independent sums, each started from its bias and advanced
/// through `prev` in index order.
#[inline(always)]
fn cols<const K: usize>(wt: &[f64], nout: usize, b: &[f64], prev: &[f64], out: &mut [f64]) {
    let mut acc: [f64; K] = std::array::from_fn(|k| b[k]);
    for (i, x) in prev.iter().enumerate() {
        let col = &wt[i * nout..][..K];
        for k in 0..K {
            acc[k] += col[k] * x;
        }
    }
    out[..K].copy_from_slice(&acc);
}

/// Adam optimizer over a flat parameter vector.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Adam {
    pub lr: f64,
    pub beta1: f64,
    pub beta2: f64,
    pub eps: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Adam with the usual (0.9, 0.999) moments.
    pub fn new(lr: f64, n_params: usize) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: vec![0.0; n_params],
            v: vec![0.0; n_params],
            t: 0,
        }
    }

    /// One descent step: `params -= lr * m̂ / (√v̂ + ε)`.
    pub fn step(&mut self, params: &mut [f64], grad: &[f64]) {
        assert_eq!(params.len(), self.m.len());
        assert_eq!(grad.len(), self.m.len());
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * grad[i];
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * grad[i] * grad[i];
            let mhat = self.m[i] / b1t;
            let vhat = self.v[i] / b2t;
            params[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
        }
    }
}

/// Global-norm gradient clipping; returns the pre-clip norm.
pub fn clip_grad_norm(grad: &mut [f64], max_norm: f64) -> f64 {
    let norm = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for g in grad.iter_mut() {
            *g *= scale;
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(3)
    }

    /// `net`'s outputs at `x`, through a fresh frozen copy.
    fn forward(net: &Mlp, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; net.dims[net.dims.len() - 1]];
        FrozenMlp::new(net).forward_into(x, &mut y);
        y
    }

    /// The loop the kernel replaced — one output at a time, one serial
    /// sum each, over the row-major weights — kept as the oracle the
    /// kernel must match bit for bit. Returns every layer's activations,
    /// input first, as a tape records them.
    fn scalar_forward(net: &Mlp, x: &[f64]) -> Vec<Vec<f64>> {
        let n_layers = net.dims.len() - 1;
        let (mut acts, mut off) = (vec![x.to_vec()], 0);
        for l in 0..n_layers {
            let (nin, nout) = (net.dims[l], net.dims[l + 1]);
            let w = &net.params[off..off + nin * nout];
            let b = &net.params[off + nin * nout..off + nin * nout + nout];
            off += nin * nout + nout;
            let act = &acts[l];
            let mut out = vec![0.0; nout];
            for o in 0..nout {
                let mut s = b[o];
                let row = &w[o * nin..(o + 1) * nin];
                for i in 0..nin {
                    s += row[i] * act[i];
                }
                out[o] = if l + 1 < n_layers { s.tanh() } else { s };
            }
            acts.push(out);
        }
        acts
    }

    /// Widths astride the 16-column block and the stack scratch, plus
    /// one above any fixed buffer.
    const WIDTHS: [usize; 9] = [1, 2, 7, 8, 9, 63, 64, 65, 130];
    const EDGES: [f64; 8] = [
        0.0,
        -0.0,
        5e-324,
        -2e-310,
        1e300,
        -1e300,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    proptest! {
        /// The frozen copy's `forward_into` and `forward_tape` — its
        /// output and every activation it records — against the scalar
        /// loop, by bits, over 1–4 layers of [`WIDTHS`] with params and
        /// inputs that are mostly ordinary and sometimes [`EDGES`]. Runs
        /// in `--release` too (`scripts/verify.sh`): only the optimised
        /// build vectorises.
        #[test]
        fn kernel_matches_the_scalar_loop_bit_for_bit(
            widths in prop::collection::vec(0usize..WIDTHS.len(), 2..=5),
            edges_per_1024 in 0u32..4,
            seed in any::<u64>(),
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let edge_rate = [0, 1, 16, 128][edges_per_1024 as usize];
            let mut value = || {
                if rng.gen_range(0..1024) < edge_rate {
                    EDGES[rng.gen_range(0..EDGES.len())]
                } else {
                    rng.gen_range(-2.0..2.0)
                }
            };
            let dims: Vec<usize> = widths.iter().map(|w| WIDTHS[*w]).collect();
            let params = (0..Mlp::param_count(&dims)).map(|_| value()).collect();
            let x: Vec<f64> = (0..dims[0]).map(|_| value()).collect();
            let net = Mlp { dims, params };
            let want = scalar_forward(&net, &x);
            let (out, tape) = FrozenMlp::new(&net).forward_tape(&x);
            let mut got = tape.act;
            got.push(out);
            got.push(forward(&net, &x));
            let layers = want.len();
            for (l, got) in got.iter().enumerate() {
                let want = &want[l.min(layers - 1)];
                prop_assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(want) {
                    prop_assert!(
                        g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                        "dims {:?}, pass {l}: got {g:e}, scalar loop {w:e}", net.dims
                    );
                }
            }
        }
    }

    #[test]
    fn param_count_is_consistent() {
        let dims = [2, 64, 64, 1];
        let net = Mlp::new(&dims, &mut rng());
        assert_eq!(net.params.len(), Mlp::param_count(&dims));
        assert_eq!(Mlp::param_count(&[2, 3]), 2 * 3 + 3);
    }

    #[test]
    fn forward_shapes_and_determinism() {
        let net = Mlp::new(&[2, 8, 3], &mut rng());
        let y1 = forward(&net, &[0.5, -0.2]);
        let y2 = forward(&net, &[0.5, -0.2]);
        assert_eq!(y1.len(), 3);
        assert_eq!(y1, y2);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        // Loss = sum(outputs); check dL/dθ numerically.
        let mut net = Mlp::new(&[3, 5, 4, 2], &mut rng());
        let x = [0.3, -0.7, 1.1];
        let (_, tape) = FrozenMlp::new(&net).forward_tape(&x);
        let mut grad = vec![0.0; net.params.len()];
        net.backward(&tape, &[1.0, 1.0], &mut grad);
        let eps = 1e-6;
        // Spot-check a spread of parameters (all would be slow-ish).
        for &pi in &[0usize, 7, 20, 33, 41, net.params.len() - 1] {
            let orig = net.params[pi];
            net.params[pi] = orig + eps;
            let up: f64 = forward(&net, &x).iter().sum();
            net.params[pi] = orig - eps;
            let dn: f64 = forward(&net, &x).iter().sum();
            net.params[pi] = orig;
            let numeric = (up - dn) / (2.0 * eps);
            assert!(
                (numeric - grad[pi]).abs() < 1e-5,
                "param {pi}: numeric {numeric} vs analytic {}",
                grad[pi]
            );
        }
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let net = Mlp::new(&[2, 6, 1], &mut rng());
        let frozen = FrozenMlp::new(&net);
        let x = [0.4, -0.9];
        let (_, tape) = frozen.forward_tape(&x);
        let mut grad = vec![0.0; net.params.len()];
        let d_in = net.backward(&tape, &[1.0], &mut grad);
        let eps = 1e-6;
        for i in 0..2 {
            let mut xp = x;
            xp[i] += eps;
            let up = frozen.forward_tape(&xp).0[0];
            xp[i] -= 2.0 * eps;
            let dn = frozen.forward_tape(&xp).0[0];
            let numeric = (up - dn) / (2.0 * eps);
            assert!(
                (numeric - d_in[i]).abs() < 1e-5,
                "input {i}: numeric {numeric} vs analytic {}",
                d_in[i]
            );
        }
    }

    #[test]
    fn adam_fits_a_regression() {
        // Fit y = 2x₁ - 3x₂ + 1 with a linear net (no hidden layer).
        let mut net = Mlp::new(&[2, 1], &mut rng());
        let mut opt = Adam::new(0.05, net.params.len());
        let data: Vec<([f64; 2], f64)> = (0..50)
            .map(|i| {
                let x1 = (i as f64 / 25.0) - 1.0;
                let x2 = ((i * 7 % 50) as f64 / 25.0) - 1.0;
                ([x1, x2], 2.0 * x1 - 3.0 * x2 + 1.0)
            })
            .collect();
        for _ in 0..400 {
            let frozen = FrozenMlp::new(&net);
            let mut grad = vec![0.0; net.params.len()];
            for (x, y) in &data {
                let (out, tape) = frozen.forward_tape(x);
                let err = out[0] - y;
                net.backward(&tape, &[2.0 * err / data.len() as f64], &mut grad);
            }
            opt.step(&mut net.params, &grad);
        }
        let mse: f64 = data
            .iter()
            .map(|(x, y)| (forward(&net, x)[0] - y).powi(2))
            .sum::<f64>()
            / data.len() as f64;
        assert!(mse < 1e-3, "Adam should fit the line, mse={mse}");
    }

    #[test]
    fn nonlinear_fit_with_hidden_layer() {
        // Fit y = x² on [-1, 1]; impossible for a linear model.
        let mut net = Mlp::new(&[1, 16, 1], &mut rng());
        let mut opt = Adam::new(0.01, net.params.len());
        let xs: Vec<f64> = (0..41).map(|i| -1.0 + i as f64 / 20.0).collect();
        for _ in 0..2000 {
            let frozen = FrozenMlp::new(&net);
            let mut grad = vec![0.0; net.params.len()];
            for &x in &xs {
                let (out, tape) = frozen.forward_tape(&[x]);
                let err = out[0] - x * x;
                net.backward(&tape, &[2.0 * err / xs.len() as f64], &mut grad);
            }
            opt.step(&mut net.params, &grad);
        }
        let worst = xs
            .iter()
            .map(|&x| (forward(&net, &[x])[0] - x * x).abs())
            .fold(0.0, f64::max);
        assert!(worst < 0.08, "x² fit worst-case error {worst}");
    }

    #[test]
    fn grad_clip_preserves_direction() {
        let mut g = vec![3.0, 4.0];
        let norm = clip_grad_norm(&mut g, 1.0);
        assert!((norm - 5.0).abs() < 1e-12);
        assert!((g[0] - 0.6).abs() < 1e-12);
        assert!((g[1] - 0.8).abs() < 1e-12);
        // Under the cap: untouched.
        let mut g2 = vec![0.1, 0.1];
        clip_grad_norm(&mut g2, 1.0);
        assert_eq!(g2, vec![0.1, 0.1]);
    }

    #[test]
    fn serde_round_trip() {
        let net = Mlp::new(&[2, 4, 1], &mut rng());
        let json = serde_json::to_string(&net).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        assert_eq!(forward(&net, &[0.2, 0.8]), forward(&back, &[0.2, 0.8]));
    }
}
