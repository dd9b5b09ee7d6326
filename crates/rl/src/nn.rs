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
//! A layer is `out = W·prev + b`, then — on a hidden layer — `tanh` in
//! a pass over the finished sums. Every forward pass in the workspace
//! runs one kernel over one layout, [`FrozenMlp`]'s column-major copy of
//! an [`Mlp`]: the rate controller's decisions (10.2 a tick on the
//! 127-service demo), training rollouts and validation, value
//! bootstraps, PPO's old-mean and KL passes, and the training tape.
//! Input `i`'s weights to consecutive outputs are contiguous, so
//! `acc[k] += col[k] · x[i]` over a block of sums is a run of packed
//! multiplies and adds, and a pass without a tape allocates nothing for
//! the 64-wide nets. [`Mlp`]'s own row-major layout is storage only —
//! initialisation, the optimizer, the model JSON and [`Mlp::backward`]
//! read it, no forward pass does — so a trainer freezes its nets again
//! after every optimizer step.
//!
//! The kernel runs at the host's vector width. One generic block sum is
//! compiled twice: sixteen outputs a block on baseline x86-64 SSE2
//! (eight xmm accumulators; the only tier off x86-64), and thirty-two
//! under AVX (eight ymm), a committed 64-wide layer in two blocks. Each
//! layer takes the widest tier `is_x86_feature_detected!` reports, so
//! the default build runs it with no build flag. A 64-wide tier under
//! AVX-512F timed the control tick within noise of this one and was not
//! kept.
//!
//! The `tanh` pass has a vector tier too. With AVX2 and FMA, four sums
//! at a time go through `tanh4`: glibc 2.36's `tanh` transcribed, for
//! |x| below ≈ 0.52, with the `expm1` it calls — the FMA build glibc's
//! IFUNC picks on such a host — reduced to the two branches that range
//! reaches. That is 99.9 % of the committed policy's pre-activations on
//! the 127-service demo; a lane outside it (or NaN), and a tail shorter
//! than four, get libm's `f64::tanh`. The lanes run only once they have
//! given libm's bits on a probe set, checked at the first pass of the
//! process, so a libm of another build or version keeps every pass on
//! libm. Calling a tier (sums or `tanh`) is the crate's `unsafe`, each
//! call behind the feature test that makes it sound.
//!
//! No tier moves a bit. The kernel reorders work *across* outputs only.
//! Each output is still `((b + w₀x₀) + w₁x₁) + …`, its own products added
//! to its own bias in index order: a vector lane holds one output's sum,
//! never a share of one, at any width. So every sum goes through the
//! same sequence of roundings as in a one-row-at-a-time loop and the
//! result is the same to the bit — which the trained models' decisions,
//! every golden fingerprint and the training runs' reproducibility all
//! rest on. Splitting one output's sum into partial sums (pairwise, or
//! lanes of a vector register), adding the bias last or fusing a
//! multiply-add would be faster still and is not done: the roundings
//! would differ, and every recorded policy output would move. Rust never
//! contracts `a * b + c` into a fused multiply-add, so no sum tier emits
//! one, whatever the host has. `tanh4` is the one place that does,
//! through explicit intrinsics, and only where glibc's FMA `expm1`
//! itself fused (its disassembly shows which): there a fused operation
//! is what matches libm's bits, and each other operation stays rounded
//! on its own, in the source's order. The oracle proptest in this file
//! pins the equality on every tier the host runs, each called directly,
//! and through dispatch, the tape's every activation included, in
//! `--release` as well; `tanh_lanes_match_libm_bit_for_bit` holds the
//! lanes to libm on millions of inputs and every branch limit.

use rand::rngs::SmallRng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;
use std::sync::OnceLock;

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
            // Parameter grads. Zipped slices rather than indices, so the
            // loops carry no bounds checks and LLVM can vectorise them;
            // each element still sees its own multiply and add, in order.
            let (g_w, g_b) = grad[off..off + nin * nout + nout].split_at_mut(nin * nout);
            for (g_row, d) in g_w.chunks_exact_mut(nin).zip(&delta) {
                for (g, p) in g_row.iter_mut().zip(prev) {
                    *g += d * p;
                }
            }
            for (g, d) in g_b.iter_mut().zip(&delta) {
                *g += d;
            }
            // Input grads for the next (shallower) layer.
            let w = &self.params[off..off + nin * nout];
            let mut d_in = vec![0.0; nin];
            for (row, d) in w.chunks_exact(nin).zip(&delta) {
                for (di, wi) in d_in.iter_mut().zip(row) {
                    *di += wi * d;
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

/// Outputs the baseline tier's [`cols`] advances together: sixteen sums
/// are eight SSE2 registers, and the committed 64-wide layers are four
/// such blocks. The AVX tier holds one in two blocks of thirty-two.
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

/// One layer: its sums on the widest tier this host runs, then — on a
/// `hidden` layer; the output is linear — `tanh` in a pass over them,
/// in lanes once they have agreed with this host's libm.
fn col_layer(wt: &[f64], b: &[f64], prev: &[f64], out: &mut [f64], hidden: bool) {
    static LANES_AGREE: OnceLock<bool> = OnceLock::new();
    let widest = TIERS.iter().take_while(|(runs, _)| !runs()).count();
    tier_sums(widest, wt, b, prev, out);
    if hidden {
        tanh_pass(*LANES_AGREE.get_or_init(|| lanes_agree(f64::tanh)), out);
    }
}

/// `tanh` over `out`: on `tanh4`'s lanes if `lanes` and the host runs
/// them, else libm's `f64::tanh` one value at a time.
fn tanh_pass(lanes: bool, out: &mut [f64]) {
    if lanes && lanes_run() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `lanes_run` detected AVX2 and FMA, the features
        // `tanh4_pass` is compiled with.
        return unsafe { tanh4_pass(out) };
    }
    out.iter_mut().for_each(|s| *s = s.tanh());
}

/// Whether this host has what `tanh4` is compiled for: AVX2 and FMA,
/// as glibc's own choice of its FMA `expm1` asks.
fn lanes_run() -> bool {
    #[cfg(target_arch = "x86_64")]
    return is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Inputs on which the lanes must give `reference`'s bits before any
/// pass uses them: both zeros, the tiny branch, k = 0 and k = −1 on
/// both sides of their limits and inside them, and fallback lanes (the
/// limit itself, ∞, NaN).
const PROBES: [f64; 16] = [
    0.0,
    -0.0,
    -f64::from_bits(TINY - 1),
    f64::from_bits(TINY),
    0.0625,
    -f64::from_bits(K0_LIMIT - 1),
    f64::from_bits(K0_LIMIT),
    -0.3,
    0.4,
    -f64::from_bits(LANE_LIMIT - 1),
    f64::from_bits(LANE_LIMIT),
    -0.75,
    3.0,
    f64::INFINITY,
    f64::NAN,
    -1e-300,
];

/// Whether the host runs the lanes and they give `reference`'s bits on
/// every probe. `col_layer` asks once per process with libm's `tanh`:
/// a libm of another build or version than `tanh4`'s transcription
/// leaves every pass on libm.
fn lanes_agree(reference: impl Fn(f64) -> f64) -> bool {
    let mut got = PROBES;
    tanh_pass(true, &mut got);
    let same = |(g, x): (&f64, &f64)| g.to_bits() == reference(*x).to_bits();
    lanes_run() && got.iter().zip(&PROBES).all(same)
}

/// `tanh` over `out` four values at a time on `tanh4`, the tail on
/// libm.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn tanh4_pass(out: &mut [f64]) {
    let mut groups = out.chunks_exact_mut(4);
    for g in &mut groups {
        g.copy_from_slice(&tanh4([g[0], g[1], g[2], g[3]]));
    }
    groups
        .into_remainder()
        .iter_mut()
        .for_each(|s| *s = s.tanh());
}

/// glibc 2.36's `tanh` of four values, bit for bit, computed in one
/// ymm register where |x| < `LANE_LIMIT`; a lane past it (or NaN) gets
/// libm's `f64::tanh`.
///
/// In that range `tanh(x)` is `z = −t/(t + 2)` with `t = expm1(−2|x|)`
/// and x's sign put back, or `x·(1 + x)` below 2⁻⁵⁵; and `expm1` — the
/// `__expm1_fma` that glibc's IFUNC picks on an AVX2 + FMA host — takes
/// two of its branches: k = 0 below `K0_LIMIT`, else the k = −1
/// reduction by ln 2. Each operation is the source's, in its order and
/// rounding: a multiply-add the FMA build fused is one fused operation
/// here (`fmadd`/`fmsub`/`fnmadd`), every other one is rounded on its
/// own, the k = −1 reduction included.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn tanh4(lanes: [f64; 4]) -> [f64; 4] {
    const LN2_HI: f64 = f64::from_bits(0x3fe62e42_fee00000);
    const LN2_LO: f64 = f64::from_bits(0x3dea39ef_35793c76);
    const Q: [f64; 6] = [
        1.0,
        f64::from_bits(0xbfa11111_111110f4),
        f64::from_bits(0x3f5a01a0_19fe5585),
        f64::from_bits(0xbf14ce19_9eaadbb7),
        f64::from_bits(0x3ed0cfca_86e65239),
        f64::from_bits(0xbe8afdb7_6e09c32d),
    ];
    let f = |v: f64| _mm256_set1_pd(v);
    let bits = |b: u64| f(f64::from_bits(b));
    let x = _mm256_setr_pd(lanes[0], lanes[1], lanes[2], lanes[3]);
    let sign = _mm256_and_pd(x, f(-0.0));
    let a = _mm256_andnot_pd(f(-0.0), x);
    // expm1's argument, and its reduction for k = −1: hi = y + ln2_hi,
    // lo = −ln2_lo, y' = hi − lo, c = (hi − y') − lo.
    let y = _mm256_mul_pd(a, f(-2.0));
    let (hi, lo) = (_mm256_add_pd(y, f(LN2_HI)), f(-LN2_LO));
    let r = _mm256_sub_pd(hi, lo);
    let c = _mm256_sub_pd(_mm256_sub_pd(hi, r), lo);
    let k0 = _mm256_cmp_pd::<_CMP_LT_OQ>(a, bits(K0_LIMIT));
    let x1 = _mm256_blendv_pd(r, y, k0);
    // The primary range's polynomial, shared by both branches.
    let hfx = _mm256_mul_pd(f(0.5), x1);
    let hxs = _mm256_mul_pd(x1, hfx);
    let r1 = _mm256_fmadd_pd(hxs, f(Q[1]), f(Q[0]));
    let h2 = _mm256_mul_pd(hxs, hxs);
    let r2 = _mm256_fmadd_pd(hxs, f(Q[3]), f(Q[2]));
    let h4 = _mm256_mul_pd(h2, h2);
    let r3 = _mm256_fmadd_pd(hxs, f(Q[5]), f(Q[4]));
    let r1 = _mm256_fmadd_pd(h4, r3, _mm256_fmadd_pd(h2, r2, r1));
    let t = _mm256_fnmadd_pd(r1, hfx, f(3.0));
    let e = _mm256_div_pd(_mm256_sub_pd(r1, t), _mm256_fnmadd_pd(x1, t, f(6.0)));
    let e = _mm256_mul_pd(hxs, e);
    // expm1's two finishes: x − (x·e − hxs) at k = 0, and at k = −1
    // e = (x·(e − c) − c) − hxs, then 0.5·(x − e) − 0.5.
    let at_k0 = _mm256_sub_pd(x1, _mm256_fmsub_pd(x1, e, hxs));
    let e = _mm256_sub_pd(_mm256_fmsub_pd(_mm256_sub_pd(e, c), x1, c), hxs);
    let at_k1 = _mm256_fmadd_pd(_mm256_sub_pd(x1, e), f(0.5), f(-0.5));
    let t = _mm256_blendv_pd(at_k1, at_k0, k0);
    let z = _mm256_div_pd(_mm256_xor_pd(t, f(-0.0)), _mm256_add_pd(t, f(2.0)));
    let z = _mm256_xor_pd(z, sign);
    let tiny = _mm256_cmp_pd::<_CMP_LT_OQ>(a, bits(TINY));
    let z = _mm256_blendv_pd(z, _mm256_mul_pd(x, _mm256_add_pd(f(1.0), x)), tiny);
    let inside = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(a, bits(LANE_LIMIT)));
    let (lo, hi) = (_mm256_castpd256_pd128(z), _mm256_extractf128_pd::<1>(z));
    let high = |h: __m128d| _mm_cvtsd_f64(_mm_unpackhi_pd(h, h));
    let mut z = [_mm_cvtsd_f64(lo), high(lo), _mm_cvtsd_f64(hi), high(hi)];
    if inside != 0b1111 {
        for i in (0..4).filter(|i| inside >> i & 1 == 0) {
            z[i] = lanes[i].tanh();
        }
    }
    z
}

/// |x| below which `tanh(x)` is `x·(1 + x)`: 2⁻⁵⁵, as bits.
const TINY: u64 = 0x3c800000_00000000;
/// |x| below which `expm1(−2|x|)` takes glibc's k = 0 branch (|2x| ≤
/// ln 2 / 2 by the high word).
const K0_LIMIT: u64 = 0x3fc62e43_00000000;
/// |x| below which the lanes compute `tanh` themselves (|2x| < 1.5 ln 2
/// by the high word, where glibc's k = −1 reduction ends).
const LANE_LIMIT: u64 = 0x3fe0a2b2_00000000;

/// One layer's sums, `out = W·prev + b`, over the column-major weights.
///
/// # Safety
///
/// The host has every target feature the function is compiled with;
/// past that, a tier is safe code.
type Sums = unsafe fn(&[f64], &[f64], &[f64], &mut [f64]);

/// The kernel's tiers, widest first: [`blocks`] at one width compiled
/// for one instruction set, beside the runtime test that the host has
/// it. The last, baseline x86-64 (or any other target), runs everywhere.
#[cfg(target_arch = "x86_64")]
const TIERS: [(fn() -> bool, Sums); 2] = [
    (|| is_x86_feature_detected!("avx"), avx),
    (|| true, blocks::<COLS>),
];
#[cfg(not(target_arch = "x86_64"))]
const TIERS: [(fn() -> bool, Sums); 1] = [(|| true, blocks::<COLS>)];

/// Thirty-two sums in eight ymm registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn avx(wt: &[f64], b: &[f64], prev: &[f64], out: &mut [f64]) {
    blocks::<32>(wt, b, prev, out);
}

/// A layer's sums on `TIERS[tier]`; panics if this host lacks the tier.
fn tier_sums(tier: usize, wt: &[f64], b: &[f64], prev: &[f64], out: &mut [f64]) {
    let (runs, sums) = TIERS[tier];
    assert!(runs(), "kernel tier {tier}: not on this host");
    // SAFETY: `runs` detected every target feature `sums` is compiled
    // with, the one condition a `Sums` sets its caller.
    unsafe { sums(wt, b, prev, out) }
}

/// `out.len()` columns of `prev.len()` inputs each: blocks of `K`
/// outputs, then the rest one at a time. Inlined into every tier, so each
/// copy is compiled for its tier's instruction set.
#[inline(always)]
fn blocks<const K: usize>(wt: &[f64], b: &[f64], prev: &[f64], out: &mut [f64]) {
    let nout = out.len();
    let blocked = nout - nout % K;
    for o in (0..blocked).step_by(K) {
        cols::<K>(&wt[o..], nout, &b[o..], prev, &mut out[o..]);
    }
    for o in blocked..nout {
        cols::<1>(&wt[o..], nout, &b[o..], prev, &mut out[o..]);
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

    /// The loops `Mlp::backward` replaced — one index at a time — kept
    /// as the oracle its zipped loops must match bit for bit. Returns
    /// ∂loss/∂input and adds the parameter grads into `grad`.
    fn indexed_backward(net: &Mlp, tape: &Tape, d_out: &[f64], grad: &mut [f64]) -> Vec<f64> {
        let n_layers = net.dims.len() - 1;
        let mut delta = d_out.to_vec();
        let mut off = Mlp::param_count(&net.dims);
        for l in (0..n_layers).rev() {
            let (nin, nout) = (net.dims[l], net.dims[l + 1]);
            off -= nin * nout + nout;
            if l + 1 < n_layers {
                let y = &tape.act[l + 1];
                for o in 0..nout {
                    delta[o] *= 1.0 - y[o] * y[o];
                }
            }
            let prev = &tape.act[l];
            for o in 0..nout {
                let g_row = &mut grad[off + o * nin..off + (o + 1) * nin];
                for i in 0..nin {
                    g_row[i] += delta[o] * prev[i];
                }
            }
            for o in 0..nout {
                grad[off + nin * nout + o] += delta[o];
            }
            let w = &net.params[off..off + nin * nout];
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

    /// `forward`'s activations with every layer's sums on `TIERS[tier]`
    /// and its `tanh` on the lanes or on libm.
    fn tier_forward(net: &Mlp, x: &[f64], tier: usize, lanes: bool) -> Vec<Vec<f64>> {
        let frozen = FrozenMlp::new(net);
        let n_layers = net.dims.len() - 1;
        let mut acts = vec![x.to_vec()];
        for (l, (_, nout, wt, b)) in frozen.0.layers().enumerate() {
            let mut out = vec![0.0; nout];
            tier_sums(tier, wt, b, &acts[l], &mut out);
            if l + 1 < n_layers {
                tanh_pass(lanes, &mut out);
            }
            acts.push(out);
        }
        acts
    }

    /// Widths astride each tier's block (16 and 32 outputs) and the
    /// stack scratch (64): below a block only the one-at-a-time tail
    /// runs, and 127–129 run it after whole blocks on every tier.
    const WIDTHS: [usize; 14] = [1, 2, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129];
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
        /// output and every activation it records — and a pass on each
        /// kernel tier this host runs, called directly rather than
        /// through dispatch, against the scalar loop, by bits, over 1–4
        /// layers of [`WIDTHS`] with params and inputs that are mostly
        /// ordinary and sometimes [`EDGES`]. Runs in `--release` too
        /// (`scripts/verify.sh`): only the optimised build vectorises.
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
            let mut passes = vec![("tape".to_string(), tape.act)];
            passes.push(("tape output".into(), vec![out]));
            passes.push(("forward_into".into(), vec![forward(&net, &x)]));
            for tier in (0..TIERS.len()).filter(|t| TIERS[*t].0()) {
                for lanes in [false, true].into_iter().filter(|l| !l || lanes_run()) {
                    let acts = tier_forward(&net, &x, tier, lanes);
                    passes.push((format!("tier {tier}, tanh lanes {lanes}"), acts));
                }
            }
            for (pass, acts) in &passes {
                // A pass of one vector is the output layer alone.
                let skip = if acts.len() == 1 { want.len() - 1 } else { 0 };
                prop_assert_eq!(acts.len() + skip, want.len());
                for (l, (got, want)) in acts.iter().zip(&want[skip..]).enumerate() {
                    prop_assert_eq!(got.len(), want.len());
                    for (g, w) in got.iter().zip(want) {
                        prop_assert!(
                            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                            "dims {:?}, {pass} layer {}: got {g:e}, scalar loop {w:e}",
                            net.dims, l + skip
                        );
                    }
                }
            }
        }
    }

    /// Asserts that the lanes give libm's `tanh` of every `x`, by bits:
    /// whole groups of four, so no input falls to the pass's libm tail.
    fn assert_lanes_match_libm(what: &str, xs: &[f64]) {
        assert_eq!(xs.len() % 4, 0, "{what}: a tail would run on libm");
        let mut got = xs.to_vec();
        tanh_pass(true, &mut got);
        for (x, g) in xs.iter().zip(&got) {
            let want = x.tanh();
            assert!(
                g.to_bits() == want.to_bits(),
                "{what}: tanh({x:e}) = {g:e}, libm {want:e}"
            );
        }
    }

    /// `tanh4` against libm's `tanh`, by bits: each branch limit ± 0–8
    /// ulps on both signs, magnitudes log-uniform over 2⁻⁶⁰–2⁶, [`EDGES`],
    /// inputs a search found to tell a rarely visible fusion apart,
    /// groups of four that mix lane and fallback inputs in every
    /// pattern, and 2²² seeded inputs inside the lanes' range. Runs in
    /// `--release` too (`scripts/verify.sh`), where the passes are the
    /// ones the controller serves.
    #[test]
    fn tanh_lanes_match_libm_bit_for_bit() {
        if !lanes_run() {
            eprintln!("no AVX2 + FMA on this host: every pass is libm's");
            return;
        }
        let mut rng = SmallRng::seed_from_u64(35);
        let mut limits = Vec::new();
        for limit in [TINY, K0_LIMIT, LANE_LIMIT] {
            for bits in (0..=8).flat_map(|u| [limit - u, limit + u]) {
                limits.extend([f64::from_bits(bits), -f64::from_bits(bits)]);
            }
        }
        assert_lanes_match_libm("branch limits", &limits);
        let log_uniform: Vec<f64> = (0..1 << 16)
            .map(|_| 2f64.powf(rng.gen_range(-60.0..6.0)) * [1.0, -1.0][rng.gen_range(0..2usize)])
            .collect();
        assert_lanes_match_libm("log-uniform", &log_uniform);
        assert_lanes_match_libm("EDGES", &EDGES);
        // Where unfusing `r1`'s inner multiply-add moves the result, at
        // k = 0 and k = −1: about one input in 4·10⁸ tells them apart.
        let witnesses = [
            0x3fc3f238_b3ec9e0f,
            0xbfdeb4ae_e9c2f971,
            0x3fc0d982_9ee12d2a,
            0xbfc964d9_c34ddb2d,
        ];
        assert_lanes_match_libm("witnesses", &witnesses.map(f64::from_bits));
        let fallback = [0.75, -3.0, f64::NAN, f64::NEG_INFINITY];
        for pattern in 0..16 {
            let group: Vec<f64> = (0..4)
                .map(|i| match pattern >> i & 1 {
                    1 => rng.gen_range(-0.5..0.5),
                    _ => fallback[(pattern + i) % 4],
                })
                .collect();
            assert_lanes_match_libm(&format!("mixed group {pattern:04b}"), &group);
        }
        let limit = f64::from_bits(LANE_LIMIT);
        let sweep: Vec<f64> = (0..1 << 22).map(|_| rng.gen_range(-limit..limit)).collect();
        assert_lanes_match_libm("sweep", &sweep);
    }

    /// The probe check: a reference one bit off on any one probe fails
    /// it, and a pass told so is libm's loop; on this host libm's own
    /// `tanh` passes it; and the probes reach every branch of the lanes.
    #[test]
    fn a_probe_that_disagrees_keeps_every_pass_on_libm() {
        let xs: Vec<f64> = (0..37).map(|i| i as f64 / 40.0 - 0.45).collect();
        for probe in PROBES {
            let one_bit_off = |x: f64| match x.to_bits() == probe.to_bits() {
                true => f64::from_bits(x.tanh().to_bits() ^ 1),
                false => x.tanh(),
            };
            assert!(!lanes_agree(one_bit_off), "probe {probe:e}");
            let mut got = xs.clone();
            tanh_pass(lanes_agree(one_bit_off), &mut got);
            for (x, g) in xs.iter().zip(&got) {
                assert_eq!(g.to_bits(), x.tanh().to_bits(), "tanh({x:e})");
            }
        }
        assert_eq!(lanes_agree(f64::tanh), lanes_run(), "this host's libm");
        let branch = |x: &f64| match x.abs().to_bits() {
            b if b < TINY => "tiny",
            b if b < K0_LIMIT => "k = 0",
            b if b < LANE_LIMIT => "k = -1",
            _ => "fallback",
        };
        let reached: Vec<&str> = PROBES.iter().map(branch).collect();
        for want in ["tiny", "k = 0", "k = -1", "fallback"] {
            assert!(reached.contains(&want), "no probe reaches {want}");
        }
        for zero in [0.0, -0.0f64] {
            assert!(
                PROBES.iter().any(|x| x.to_bits() == zero.to_bits()),
                "no {zero:?}"
            );
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

    /// `Mlp::backward` against its indexed oracle, by bits: parameter
    /// grads accumulated onto nonzero values and the input grad, on nets
    /// 3 and 17 wide (no `policy.*` row pins a width but 64), 1–3 layers,
    /// over many random inputs and output grads.
    #[test]
    fn backward_matches_the_indexed_loops_bit_for_bit() {
        let mut r = rng();
        for dims in [
            &[3, 17, 1][..],
            &[17, 3],
            &[2, 17, 3, 2],
            &[3, 3, 17, 17, 1],
        ] {
            let net = Mlp::new(dims, &mut r);
            let frozen = FrozenMlp::new(&net);
            for _ in 0..200 {
                let x: Vec<f64> = (0..dims[0]).map(|_| r.gen_range(-3.0..3.0)).collect();
                let d_out: Vec<f64> = (0..dims[dims.len() - 1])
                    .map(|_| r.gen_range(-2.0..2.0))
                    .collect();
                let start: Vec<f64> = net.params.iter().map(|_| r.gen_range(-1.0..1.0)).collect();
                let (_, tape) = frozen.forward_tape(&x);
                let (mut grad, mut want) = (start.clone(), start);
                let d_in = net.backward(&tape, &d_out, &mut grad);
                let want_in = indexed_backward(&net, &tape, &d_out, &mut want);
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&grad), bits(&want), "parameter grads, dims {dims:?}");
                assert_eq!(bits(&d_in), bits(&want_in), "input grad, dims {dims:?}");
            }
        }
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
