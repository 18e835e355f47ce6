//! Runtime-dispatched SIMD kernels for the inference and training hot
//! paths.
//!
//! Every dense kernel the scoring engines and training run on is a
//! function pointer in a [`KernelSet`]:
//!
//! * inference — the fused GRU gate block of [`PackedGru::step`], the
//!   f32 engines' panel GEMV, and the int8 engine's panel GEMV and
//!   activation scan/encode/decode;
//! * training — the batch GEMMs of [`Matrix`]: the nt-GEMM behind
//!   [`Matrix::matmul_nt_into`] (the forward `X · Wᵀ`, and
//!   [`Matrix::matvec_into`] as its one-row case), bitwise a loop of its
//!   one-row products, and the rank-update GEMM behind
//!   [`Matrix::matmul_nn_into`] / [`Matrix::matmul_tn_into`] (`dY · W`,
//!   `dYᵀ · X`), every output of which is one multiply-add chain over `k`
//!   that its doc spells out;
//! * both — the dense layer's bias + activation epilogue and the
//!   autoencoder's L1 error reduction.
//!
//! Four sets exist:
//!
//! * **scalar** — safe reference implementations written with plain
//!   multiply/add (no `mul_add`, so they never lower to a slow `fmaf` libm
//!   call on builds without FMA codegen) and `std` `exp`/`tanh`. This is
//!   the ground truth the SIMD sets are property-tested against. The one
//!   exception is `act_decode`, whose contract *is* a single-rounding
//!   fused multiply-add: it keeps `mul_add` so that it stays bit-identical
//!   to the SIMD sets' hardware `vfmadd`.
//! * **avx2** — explicit `std::arch::x86_64` AVX2+FMA intrinsics: 8-lane
//!   FMA dot kernels with register blocking, the f32 panel GEMV,
//!   the 4-row × 16-column rank-update GEMM tile, a polynomial `exp`
//!   (Cephes `expf` constants, ≈2 ulp) powering vectorized sigmoid/tanh
//!   for the gate block and dense activations, and the 256-bit
//!   `maddubs`+`madd` int8 panel GEMV.
//! * **avx512** — the f32 kernels widened to 16 lanes with masked tails
//!   (the rank-update tile to 4 rows × 64 columns, and the nt-GEMM taking
//!   two rows per pass), used where AVX-512F is available; the int8 panel
//!   GEMV stays on the avx2 `maddubs` kernel (AVX-512F has no
//!   byte-granular multiply).
//! * **avx512vnni** — the avx512 f32 kernels plus the 512-bit `vpdpbusd`
//!   int8 panel GEMV (u8×i8 quads accumulated straight into i32 lanes).
//!
//! Selection happens **once per process** via
//! [`is_x86_feature_detected!`]: [`KernelSet::active`] picks the widest
//! supported set (avx512vnni → avx512 → avx2 → scalar) and caches it.
//! The environment variable `NEURAL_KERNELS=scalar|avx2|avx512|avx512vnni`
//! pins a specific set instead — the one process-wide switch this
//! workspace's libraries read, kept because a libtest binary has no other
//! edge at which to take a value (CI runs the whole test suite under
//! `scalar` and under `avx2`, to keep the reference path and the middle of
//! the ladder exercised). A set the CPU lacks falls back to the ladder; a
//! name that is not one of the four panics, so a typo cannot pass for a
//! pin. Tests can also grab a specific set directly
//! ([`KernelSet::scalar`], [`KernelSet::avx2`], [`KernelSet::avx512`],
//! [`KernelSet::avx512vnni`]) without touching the process-wide choice.
//!
//! SIMD results differ from scalar only by float reassociation, fused
//! multiply-adds and the polynomial `exp` (all bounded to 1e-6 by the
//! property tests); within one set the kernels are deterministic, which is
//! what keeps a row scored in a batch bitwise identical to that row scored
//! alone, and trained weights a pure function of the training data on
//! each set.
//!
//! [`Matrix`]: crate::Matrix
//! [`Matrix::matvec_into`]: crate::Matrix::matvec_into
//! [`Matrix::matmul_nt_into`]: crate::Matrix::matmul_nt_into
//! [`Matrix::matmul_nn_into`]: crate::Matrix::matmul_nn_into
//! [`Matrix::matmul_tn_into`]: crate::Matrix::matmul_tn_into
//! [`PackedGru::step`]: crate::PackedGru::step

use crate::dense::Activation;
use crate::quant::ActQuant;
use std::sync::OnceLock;

/// `dot(a, b)` — one dot product.
type DotFn = fn(&[f32], &[f32]) -> f32;
/// `dot4(a, b0, b1, b2, b3)` — four dot products sharing one `a`.
type Dot4Fn = fn(&[f32], &[f32], &[f32], &[f32], &[f32]) -> [f32; 4];
/// `gemm_nt_f32(a, b, c, k)` — `C = A · Bᵀ` over rows `k` long.
type GemmNtF32Fn = fn(&[f32], &[f32], &mut [f32], usize);
/// `gemm_rank_f32(a, strides, b, c, n)` — the rank-update GEMM over rows
/// of `B` and `C` `n` long.
type GemmRankF32Fn = fn(&[f32], [usize; 2], &[f32], &mut [f32], usize);
/// `gru_gates(xp, up, h, z, r)` — the fused gate block over a 3H slab.
type GruGatesFn = fn(&[f32], &[f32], &mut [f32], &mut [f32], &mut [f32]);
/// `panel_gemv_i8(w, qa, act, y)` — the int8 panel GEMV with its
/// dequantizing epilogue.
type PanelGemvI8Fn = fn(&Panels<'_>, &[u8], ActQuant, &mut [f32]);
/// `panel_gemv_f32(w, cols, x, y)` — the f32 panel GEMV.
type PanelGemvF32Fn = fn(&[PanelLine], usize, &[f32], &mut [f32]);

/// Output lanes per weight panel block. The layout is defined in lanes,
/// not registers: a block's i32 accumulators are one zmm, two ymm or a
/// 16-element array, and every tier reads the same bytes.
pub const PANEL_LANES: usize = 16;
/// Consecutive `k` (activation bytes) each lane holds per k-quad — what
/// one `vpdpbusd` i32 lane, or one `maddubs`+`madd` i32 lane, consumes.
pub const PANEL_K: usize = 4;

/// One k-quad of one panel block: `[output lane][4 consecutive k]`, 64
/// bytes on a cache-line boundary so a 512-bit load never splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(64))]
pub struct PanelQuad(pub [[i8; PANEL_K]; PANEL_LANES]);

/// One `k` of one f32 panel block: the weight of each of the block's
/// [`PANEL_LANES`] output rows at that `k` — 64 bytes on a cache-line
/// boundary, so a 512-bit load is aligned and never splits. An f32 panel
/// matrix ([`crate::PanelMatrix`]) is `[row block][k]` of these: output row
/// `r` is lane `r % PANEL_LANES` of block `r / PANEL_LANES`, rows are
/// zero-padded to whole blocks and `k` is not padded.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
pub struct PanelLine(pub [f32; PANEL_LANES]);

/// Borrowed int8 weight panels of a `rows × cols` matrix, as
/// [`KernelSet::panel_gemv_i8`] consumes them (built by
/// [`crate::quant::QuantMatrix`]). Output row `r` lives in lane
/// `r % PANEL_LANES` of block `r / PANEL_LANES`; rows are padded to whole
/// blocks and `cols` to whole k-quads, and every pad weight, scale and
/// row sum is zero so pad lanes and pad bytes contribute nothing.
#[derive(Debug, Clone, Copy)]
pub struct Panels<'a> {
    /// `[block][k-quad]`, `blocks · kq` entries.
    pub q: &'a [PanelQuad],
    /// k-quads per block: `cols.div_ceil(PANEL_K)`.
    pub kq: usize,
    /// Per-lane weight scale `s_r`, `blocks · PANEL_LANES` entries.
    pub scales: &'a [f32],
    /// Per-lane `Σ_k q[r][k]` (as the f32 the epilogue multiplies), same
    /// length as `scales`.
    pub row_sums: &'a [f32],
}

/// A coherent set of hot-path kernels, selected once at startup. All
/// function pointers are plain safe `fn`s; the SIMD variants wrap their
/// `unsafe` intrinsic bodies and are only ever placed in sets whose
/// constructor verified the required CPU features.
#[derive(Clone, Copy)]
pub struct KernelSet {
    /// Kernel family name: `"scalar"`, `"avx2"`, `"avx512"` or
    /// `"avx512vnni"`.
    pub name: &'static str,
    gemm_nt_f32: GemmNtF32Fn,
    gemm_rank_f32: GemmRankF32Fn,
    bias_act: fn(&mut [f32], &[f32], Activation),
    gru_gates: GruGatesFn,
    sum_abs_diff: fn(&[f32], &[f32]) -> f32,
    panel_gemv_i8: PanelGemvI8Fn,
    panel_gemv_f32: PanelGemvF32Fn,
    act_range: fn(&[f32]) -> (f32, f32),
    act_encode: fn(&[f32], f32, f32, &mut [u8]),
    act_decode: fn(&[u8], ActQuant, &mut [f32]),
}

impl std::fmt::Debug for KernelSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelSet")
            .field("name", &self.name)
            .finish()
    }
}

impl KernelSet {
    /// `C = A · Bᵀ` — a training batch's forward product `X · Wᵀ`, and a
    /// row-major matvec as its one-row case. `A` is `m × k`, `B` is `n × k`
    /// and `C` is `m × n`, each row-major; `C` is overwritten.
    ///
    /// Each output depends only on its own row of `A` and its own row of
    /// `B` (and on whether that row of `B` falls in one of the `n / 4`
    /// leading groups of four or among the `n % 4` trailing rows, which fix
    /// its accumulators, steps and final reduction), never on another row
    /// of `A`. So a multi-row product is bitwise a loop of one-row products,
    /// however many rows of `A` share a pass. The avx512 sets take two rows
    /// of `A` through each group of four rows of `B`, so every loaded chunk
    /// of the group serves both; the avx2 and scalar sets run one row at a
    /// time (two rows' eight accumulator pairs do not fit in sixteen ymm
    /// registers).
    #[inline]
    pub fn gemm_nt_f32(&self, a: &[f32], b: &[f32], c: &mut [f32], k: usize) {
        if k == 0 {
            // Empty dot products: every output is `+0`.
            return c.fill(0.0);
        }
        assert!(
            a.len().is_multiple_of(k)
                && b.len().is_multiple_of(k)
                && Some(c.len()) == (a.len() / k).checked_mul(b.len() / k),
            "gemm_nt shape mismatch"
        );
        if !c.is_empty() {
            (self.gemm_nt_f32)(a, b, c, k)
        }
    }

    /// Rank-update GEMM — a training batch's backward products:
    ///
    /// ```text
    /// C[r][j] = Σ_k a(k, r) · B[k][j],    a(k, r) = a[k·ks + r·rs]
    /// ```
    ///
    /// with `B` `K × n` and `C` `m × n` row-major (`C` is overwritten) and
    /// `A` read through `strides = [ks, rs]`. With `a` the `K × m` output
    /// gradient `dY`, strides `[m, 1]` give the weight gradient `dYᵀ · X`;
    /// with `a` the `m × K` `dY`, strides `[1, K]` give the input gradient
    /// `dY · W`.
    ///
    /// Every output is the chain `c = a(k, r) · B[k][j] + c` with `k`
    /// ascending from `c = +0`: each step is fused (one rounding) on the
    /// SIMD sets and rounded twice (the product, then the sum) on scalar,
    /// and a `k` whose `a(k, r)` is `±0` is skipped for that row alone, so
    /// a NaN or infinity in `B` never meets a zero coefficient. The chain
    /// is the same whatever the tile. The SIMD sets keep a tile of four
    /// rows of `C` by 64 (avx512) or 16 (avx2) columns in registers for the
    /// whole of `K`: each loaded line of `B` feeds four rows, and `C` is
    /// written once.
    #[inline]
    pub fn gemm_rank_f32(
        &self,
        a: &[f32],
        strides: [usize; 2],
        b: &[f32],
        c: &mut [f32],
        n: usize,
    ) {
        if c.is_empty() {
            return;
        }
        assert!(
            n > 0 && b.len().is_multiple_of(n) && c.len().is_multiple_of(n),
            "gemm_rank shape mismatch"
        );
        let (kdim, m) = (b.len() / n, c.len() / n);
        if kdim == 0 {
            return c.fill(0.0);
        }
        let [ks, rs] = strides;
        let last = (kdim - 1)
            .checked_mul(ks)
            .and_then(|k| (m - 1).checked_mul(rs)?.checked_add(k));
        assert!(
            last.is_some_and(|i| i < a.len()),
            "gemm_rank operand out of bounds"
        );
        (self.gemm_rank_f32)(a, strides, b, c, n)
    }

    /// Fused bias add + activation over one output row:
    /// `row[i] = act(row[i] + bias[i])`.
    #[inline]
    pub fn bias_act(&self, row: &mut [f32], bias: &[f32], act: Activation) {
        assert_eq!(row.len(), bias.len(), "bias_act length mismatch");
        (self.bias_act)(row, bias, act)
    }

    /// The fused GRU gate block over the packed `3H` pre-activation slab:
    ///
    /// ```text
    /// z[i] = σ(xp[i]      + up[i])
    /// r[i] = σ(xp[H + i]  + up[H + i])
    /// n    = tanh(xp[2H+i] + r[i]·up[2H+i])
    /// h[i] = (1 − z[i])·n + z[i]·h[i]
    /// ```
    ///
    /// `h` is updated in place; `z`/`r` receive the gate activations
    /// (they may alias rows of a caller's profile matrix).
    #[inline]
    pub fn gru_gates(&self, xp: &[f32], up: &[f32], h: &mut [f32], z: &mut [f32], r: &mut [f32]) {
        let hidden = h.len();
        assert!(
            xp.len() == 3 * hidden
                && up.len() == 3 * hidden
                && z.len() == hidden
                && r.len() == hidden,
            "gru_gates shape mismatch"
        );
        (self.gru_gates)(xp, up, h, z, r)
    }

    /// `Σ |a[i] − b[i]|` — the autoencoder's L1 reconstruction-error
    /// reduction.
    #[inline]
    pub fn sum_abs_diff(&self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "sum_abs_diff length mismatch");
        (self.sum_abs_diff)(a, b)
    }

    /// Int8 panel GEMV with the dequantizing epilogue — the one kernel
    /// under every quantized matvec ([`crate::quant::QuantMatrix`]):
    ///
    /// ```text
    /// acc[r] = Σ_k qa[k] · q[r][k]                        (exact, i32)
    /// y[r]   = s_r · (act.scale · acc[r] + act.min · R_r)
    /// ```
    ///
    /// Each k-quad broadcasts four activation bytes against a whole block
    /// of output lanes, so every lane owns one i32 accumulator: there is
    /// no horizontal reduction and no k-tail, and the weights are read as
    /// one sequential stream.
    ///
    /// `qa` holds quantized activations, which the quantizer confines to
    /// the 7-bit unsigned range `0..=127`; weights lie in `-127..=127`.
    /// Under that contract every pair product fits the AVX2 `maddubs` i16
    /// pair-sum without saturation, so all kernel sets form the
    /// **bit-identical** i32 (integer addition is associative — no SIMD
    /// reassociation drift exists on this path), and the epilogue is the
    /// same mul, mul, add, mul (never an FMA) everywhere, so `y` is
    /// bit-identical too. `qa` may be longer than `cols`: bytes past it
    /// up to `4·kq` are read but meet only zero weights.
    #[inline]
    pub fn panel_gemv_i8(&self, w: &Panels<'_>, qa: &[u8], act: ActQuant, y: &mut [f32]) {
        let lanes = y.len().div_ceil(PANEL_LANES) * PANEL_LANES;
        assert!(
            w.q.len() == lanes / PANEL_LANES * w.kq
                && w.scales.len() == lanes
                && w.row_sums.len() == lanes,
            "panel shape mismatch"
        );
        assert!(qa.len() >= w.kq * PANEL_K, "panel activation row too short");
        debug_assert!(
            qa[..w.kq * PANEL_K].iter().all(|&x| x <= 127),
            "quantized activations exceed the 7-bit contract"
        );
        (self.panel_gemv_i8)(w, qa, act, y)
    }

    /// F32 panel GEMV — the one kernel under every f32 inference product
    /// ([`crate::PanelMatrix`]): `y[r] = Σ_k x[k] · w[r][k]`, with `x` one
    /// activation row `cols` long, `y` its outputs and `w` the
    /// `[row block][k]` [`PanelLine`]s of the matrix.
    ///
    /// Each `k` broadcasts the activation against a whole block of output
    /// lanes. Every lane owns one accumulator and runs the single chain
    /// `acc = x[k]·w[k][lane] + acc`, `k` ascending from zero: there is no
    /// horizontal reduction and no k-tail, and each block's weights are
    /// read as one sequential aligned stream. The SIMD sets fuse the
    /// multiply-add and differ only in how many lanes share a register, so
    /// avx2 and avx512 return **bit-identical** rows; the scalar set
    /// rounds the product first (no `mul_add`, see the module docs) and is
    /// within the usual reassociation tolerance.
    ///
    /// A `k` whose activation is `±0.0` is skipped in every set, its
    /// weights unread. With finite weights ([`crate::PanelMatrix::pack`]'s
    /// contract) that is the same arithmetic: the skipped term is `±0`,
    /// and adding `±0` leaves a non-zero accumulator alone and a `+0` one
    /// at `+0`, which is where every accumulator starts. (Only a fused
    /// product that underflowed, `|x·w| < 2⁻¹⁴⁹`, can leave an accumulator
    /// at `−0`; the skip then differs in the sign of a zero.)
    #[inline]
    pub fn panel_gemv_f32(&self, w: &[PanelLine], cols: usize, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), cols, "panel activation row mismatch");
        assert!(
            y.len().div_ceil(PANEL_LANES).checked_mul(cols) == Some(w.len()),
            "panel shape mismatch"
        );
        (self.panel_gemv_f32)(w, cols, x, y)
    }

    /// `(min, max)` of an activation row — the range scan behind
    /// on-the-fly quantization. Pure lane-parallel float min/max, so every
    /// set returns identical values for finite rows; a row containing
    /// NaN/±inf may return a non-finite bound (the quantizer detects that
    /// and falls back to a shared filtering rescan, keeping the final
    /// quantization identical across sets).
    #[inline]
    pub fn act_range(&self, x: &[f32]) -> (f32, f32) {
        (self.act_range)(x)
    }

    /// Encodes one activation row to 7-bit unsigned codes:
    /// `out[k] = clamp(trunc((x[k] − min) · inv + 0.5), 0, 127)`, with
    /// NaN mapping to code 0. Per-element arithmetic only (sub, mul, add,
    /// compare, truncate — never an FMA), so all sets produce the
    /// bit-identical codes.
    #[inline]
    pub fn act_encode(&self, x: &[f32], min: f32, inv: f32, out: &mut [u8]) {
        assert_eq!(x.len(), out.len(), "act_encode length mismatch");
        (self.act_encode)(x, min, inv, out)
    }

    /// Decodes 7-bit codes back to f32: `out[k] = fma(act.scale,
    /// codes[k], act.min)` — the read path of resident int8 state. A
    /// single-rounding fused multiply-add on every set (hardware `vfmadd`
    /// in the SIMD sets, `f32::mul_add` in the scalar one), so the decoded
    /// values are bit-identical across sets.
    #[inline]
    pub fn act_decode(&self, codes: &[u8], act: ActQuant, out: &mut [f32]) {
        assert_eq!(codes.len(), out.len(), "act_decode length mismatch");
        (self.act_decode)(codes, act, out)
    }

    /// The safe scalar reference set. Always available; pinned
    /// process-wide by `NEURAL_KERNELS=scalar`.
    pub fn scalar() -> &'static KernelSet {
        &SCALAR
    }

    /// The AVX2+FMA set, if this CPU supports it.
    pub fn avx2() -> Option<&'static KernelSet> {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                return Some(&x86::AVX2);
            }
        }
        None
    }

    /// The AVX-512F set, if this CPU supports it. Also requires AVX2+FMA
    /// (true of every AVX-512 CPU shipped): the set's int8 kernels are the
    /// 256-bit `maddubs` path — AVX-512F alone has no byte-granular
    /// multiply, that needs the VNNI set below.
    pub fn avx512() -> Option<&'static KernelSet> {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx2")
                && is_x86_feature_detected!("fma")
            {
                return Some(&x86::AVX512);
            }
        }
        None
    }

    /// The AVX-512 VNNI set, if this CPU supports it: identical f32
    /// kernels to [`avx512`](Self::avx512), plus the `vpdpbusd` int8 panel
    /// GEMV (u8×i8 quads accumulated straight into i32 lanes, no
    /// intermediate i16 stage). Requires AVX-512F+BW+VNNI, and AVX2+FMA
    /// for the activation scan/encode/decode kernels it shares with the
    /// narrower sets.
    pub fn avx512vnni() -> Option<&'static KernelSet> {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512bw")
                && is_x86_feature_detected!("avx512vnni")
                && is_x86_feature_detected!("avx2")
                && is_x86_feature_detected!("fma")
            {
                return Some(&x86::AVX512VNNI);
            }
        }
        None
    }

    /// Every set this CPU can run — scalar plus whatever was detected.
    /// Equivalence tests iterate this so they exercise exactly the kernels
    /// the host can dispatch.
    pub fn available() -> Vec<&'static KernelSet> {
        let mut sets = vec![Self::scalar()];
        sets.extend(Self::avx2());
        sets.extend(Self::avx512());
        sets.extend(Self::avx512vnni());
        sets
    }

    /// The process-wide dispatched set: the widest ISA the CPU supports,
    /// unless `NEURAL_KERNELS=scalar|avx2|avx512|avx512vnni` pins a
    /// specific set. A pinned set the CPU lacks falls back to the normal
    /// ladder, so `NEURAL_KERNELS=avx2` on an AVX-512 machine reproduces
    /// what an AVX2-only host would dispatch and the same CI leg runs on
    /// any runner. Selected on first call, cached forever.
    ///
    /// # Panics
    /// On the first call, if `NEURAL_KERNELS` is set to anything but one
    /// of the four set names.
    pub fn active() -> &'static KernelSet {
        static ACTIVE: OnceLock<&'static KernelSet> = OnceLock::new();
        ACTIVE.get_or_init(|| {
            let requested =
                std::env::var_os("NEURAL_KERNELS").map(|v| v.to_string_lossy().into_owned());
            select(requested.as_deref())
        })
    }
}

/// The dispatch policy, factored out of [`KernelSet::active`] so it can be
/// unit-tested without mutating process environment. `requested` is the
/// `NEURAL_KERNELS` value: a supported set name pins that set, a known
/// name the CPU lacks falls through to the widest-ISA ladder, and any
/// other value panics.
fn select(requested: Option<&str>) -> &'static KernelSet {
    let pinned = match requested {
        None => None,
        Some("scalar") => Some(KernelSet::scalar()),
        Some("avx2") => KernelSet::avx2(),
        Some("avx512") => KernelSet::avx512(),
        Some("avx512vnni") => KernelSet::avx512vnni(),
        Some(other) => panic!(
            "NEURAL_KERNELS={other:?} names no kernel set; \
             accepted values: scalar, avx2, avx512, avx512vnni"
        ),
    };
    pinned.unwrap_or_else(|| {
        KernelSet::avx512vnni()
            .or_else(KernelSet::avx512)
            .or_else(KernelSet::avx2)
            .unwrap_or_else(KernelSet::scalar)
    })
}

// ---------------------------------------------------------------------------
// Scalar reference kernels
// ---------------------------------------------------------------------------

/// Lane width of the scalar accumulator blocks; matches one AVX2 register
/// of `f32`s and autovectorizes cleanly on narrower ISAs (SSE2 baseline).
const LANES: usize = 8;

static SCALAR: KernelSet = KernelSet {
    name: "scalar",
    gemm_nt_f32: gemm_nt_f32_scalar,
    gemm_rank_f32: gemm_rank_f32_scalar,
    bias_act: bias_act_scalar,
    gru_gates: gru_gates_scalar,
    sum_abs_diff: sum_abs_diff_scalar,
    panel_gemv_i8: panel_gemv_i8_scalar,
    panel_gemv_f32: panel_gemv_f32_scalar,
    act_range: act_range_scalar,
    act_encode: act_encode_scalar,
    act_decode: act_decode_scalar,
};

fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; LANES];
    let ca = a.chunks_exact(LANES);
    let cb = b.chunks_exact(LANES);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        for i in 0..LANES {
            lanes[i] += xa[i] * xb[i];
        }
    }
    let mut acc = 0.0;
    for lane in lanes {
        acc += lane;
    }
    for (x, y) in ra.iter().zip(rb) {
        acc += x * y;
    }
    acc
}

fn dot4_scalar(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
    let mut l0 = [0.0f32; LANES];
    let mut l1 = [0.0f32; LANES];
    let mut l2 = [0.0f32; LANES];
    let mut l3 = [0.0f32; LANES];
    let n = a.len() / LANES * LANES;
    let mut k = 0;
    while k < n {
        let xa = &a[k..k + LANES];
        let x0 = &b0[k..k + LANES];
        let x1 = &b1[k..k + LANES];
        let x2 = &b2[k..k + LANES];
        let x3 = &b3[k..k + LANES];
        for i in 0..LANES {
            l0[i] += xa[i] * x0[i];
            l1[i] += xa[i] * x1[i];
            l2[i] += xa[i] * x2[i];
            l3[i] += xa[i] * x3[i];
        }
        k += LANES;
    }
    let mut out = [0.0f32; 4];
    for (o, lanes) in out.iter_mut().zip([&l0, &l1, &l2, &l3]) {
        for lane in lanes.iter() {
            *o += lane;
        }
    }
    for k in n..a.len() {
        out[0] += a[k] * b0[k];
        out[1] += a[k] * b1[k];
        out[2] += a[k] * b2[k];
        out[3] += a[k] * b3[k];
    }
    out
}

fn axpy_scalar(dst: &mut [f32], src: &[f32], alpha: f32) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += alpha * s;
    }
}

/// `C = A · Bᵀ` one row of `A` at a time: per row, four rows of `B` per
/// `dot4` and the `n % 4` trailing ones through `dot`. The body of the sets
/// whose registers hold no multi-row block; `k > 0` and `C` non-empty.
#[inline(always)]
fn gemm_nt_rows(a: &[f32], b: &[f32], c: &mut [f32], k: usize, dot4: Dot4Fn, dot: DotFn) {
    let n = b.len() / k;
    for (arow, crow) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
        let mut groups = b.chunks_exact(4 * k);
        for (out, g) in crow.chunks_exact_mut(4).zip(groups.by_ref()) {
            let (b01, b23) = g.split_at(2 * k);
            let ((b0, b1), (b2, b3)) = (b01.split_at(k), b23.split_at(k));
            out.copy_from_slice(&dot4(arow, b0, b1, b2, b3));
        }
        let tail = groups.remainder().chunks_exact(k);
        for (out, brow) in crow[n / 4 * 4..].iter_mut().zip(tail) {
            *out = dot(arow, brow);
        }
    }
}

fn gemm_nt_f32_scalar(a: &[f32], b: &[f32], c: &mut [f32], k: usize) {
    gemm_nt_rows(a, b, c, k, dot4_scalar, dot_scalar)
}

/// Reference rank-update GEMM: row by row, `axpy_scalar`'s multiply then
/// add per `k`, skipping a zero `a(k, r)`.
fn gemm_rank_f32_scalar(a: &[f32], [ks, rs]: [usize; 2], b: &[f32], c: &mut [f32], n: usize) {
    for (r, crow) in c.chunks_exact_mut(n).enumerate() {
        crow.fill(0.0);
        for (k, brow) in b.chunks_exact(n).enumerate() {
            let av = a[k * ks + r * rs];
            if av != 0.0 {
                axpy_scalar(crow, brow, av);
            }
        }
    }
}

fn bias_act_scalar(row: &mut [f32], bias: &[f32], act: Activation) {
    debug_assert_eq!(row.len(), bias.len());
    for (v, &b) in row.iter_mut().zip(bias) {
        *v = act.apply(*v + b);
    }
}

fn gru_gates_scalar(xp: &[f32], up: &[f32], h: &mut [f32], z: &mut [f32], r: &mut [f32]) {
    let hidden = h.len();
    for i in 0..hidden {
        z[i] = crate::sigmoid(xp[i] + up[i]);
    }
    for i in 0..hidden {
        r[i] = crate::sigmoid(xp[hidden + i] + up[hidden + i]);
    }
    for i in 0..hidden {
        let n = (xp[2 * hidden + i] + r[i] * up[2 * hidden + i]).tanh();
        h[i] = (1.0 - z[i]) * n + z[i] * h[i];
    }
}

/// Dequantizes one i32 accumulator: the activation offset re-enters
/// through the precomputed weight-row sum (`Σ w ≈ s_r · R_r`), then the
/// combined scales apply. Two multiplies, an add, a multiply — the SIMD
/// epilogues spell out the same four ops, so none may contract to an FMA.
#[inline]
pub(crate) fn dequantize(acc: i32, row_sum: f32, act: ActQuant, row_scale: f32) -> f32 {
    row_scale * (act.scale * acc as f32 + act.min * row_sum)
}

/// Reference panel GEMV. Integer accumulation is exact and associative,
/// so this is not merely "close to" the SIMD kernels — it is bit-identical,
/// which is what lets the proptests pin `==` instead of a tolerance.
fn panel_gemv_i8_scalar(w: &Panels<'_>, qa: &[u8], act: ActQuant, y: &mut [f32]) {
    for (b, yb) in y.chunks_mut(PANEL_LANES).enumerate() {
        let mut acc = [0i32; PANEL_LANES];
        let block = &w.q[b * w.kq..(b + 1) * w.kq];
        for (quad, a) in block.iter().zip(qa.chunks_exact(PANEL_K)) {
            for (lane, wq) in acc.iter_mut().zip(&quad.0) {
                for (&av, &wv) in a.iter().zip(wq) {
                    *lane += i32::from(av) * i32::from(wv);
                }
            }
        }
        let r0 = b * PANEL_LANES;
        for (l, out) in yb.iter_mut().enumerate() {
            *out = dequantize(acc[l], w.row_sums[r0 + l], act, w.scales[r0 + l]);
        }
    }
}

/// Reference f32 panel GEMV: one block at a time, sixteen accumulators,
/// multiply then add.
fn panel_gemv_f32_scalar(w: &[PanelLine], cols: usize, x: &[f32], y: &mut [f32]) {
    for (b, yb) in y.chunks_mut(PANEL_LANES).enumerate() {
        let mut acc = [0.0f32; PANEL_LANES];
        for (line, &xv) in w[b * cols..(b + 1) * cols].iter().zip(x) {
            if xv == 0.0 {
                continue;
            }
            for (a, &wv) in acc.iter_mut().zip(&line.0) {
                *a += xv * wv;
            }
        }
        yb.copy_from_slice(&acc[..yb.len()]);
    }
}

/// Lane-blocked select-form min/max scan. A NaN comparison is false, so a
/// NaN element never replaces a lane bound; ±inf propagates into the
/// result, where the quantizer's finiteness check catches it.
fn act_range_scalar(x: &[f32]) -> (f32, f32) {
    let mut lo = [f32::INFINITY; LANES];
    let mut hi = [f32::NEG_INFINITY; LANES];
    let chunks = x.chunks_exact(LANES);
    let tail = chunks.remainder();
    for c in chunks {
        for i in 0..LANES {
            lo[i] = if c[i] < lo[i] { c[i] } else { lo[i] };
            hi[i] = if c[i] > hi[i] { c[i] } else { hi[i] };
        }
    }
    let (mut min, mut max) = (f32::INFINITY, f32::NEG_INFINITY);
    for i in 0..LANES {
        min = if lo[i] < min { lo[i] } else { min };
        max = if hi[i] > max { hi[i] } else { max };
    }
    for &v in tail {
        min = if v < min { v } else { min };
        max = if v > max { v } else { max };
    }
    (min, max)
}

/// Reference encode: `(v − min)·inv` is non-negative for every finite `v`
/// of the row, so adding 0.5 and truncating rounds to nearest (half-up)
/// without `f32::round` (a libm call on the SSE2 baseline). The `t > 127`
/// select keeps NaN (comparison false), which the saturating `as u8` cast
/// then sends to code 0.
fn act_encode_scalar(x: &[f32], min: f32, inv: f32, out: &mut [u8]) {
    debug_assert_eq!(x.len(), out.len());
    for (q, &v) in out.iter_mut().zip(x) {
        let t = (v - min) * inv + 0.5;
        *q = if t > 127.0 { 127.0 } else { t } as u8;
    }
}

/// The decode loop, inlined into each set's entry point so it compiles
/// under that set's target features: `mul_add` is a libm `fmaf` call on
/// the SSE2 baseline and one `vfmadd` lane once FMA codegen is enabled.
#[inline(always)]
fn act_decode_loop(codes: &[u8], act: ActQuant, out: &mut [f32]) {
    for (o, &c) in out.iter_mut().zip(codes) {
        *o = act.scale.mul_add(f32::from(c), act.min);
    }
}

fn act_decode_scalar(codes: &[u8], act: ActQuant, out: &mut [f32]) {
    act_decode_loop(codes, act, out)
}

fn sum_abs_diff_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; LANES];
    let ca = a.chunks_exact(LANES);
    let cb = b.chunks_exact(LANES);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        for i in 0..LANES {
            lanes[i] += (xa[i] - xb[i]).abs();
        }
    }
    let mut acc = 0.0;
    for lane in lanes {
        acc += lane;
    }
    for (x, y) in ra.iter().zip(rb) {
        acc += (x - y).abs();
    }
    acc
}

// ---------------------------------------------------------------------------
// x86-64 SIMD kernels (AVX2+FMA and AVX-512F)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{gemm_nt_rows, ActQuant, Activation, KernelSet, PanelLine, Panels, PANEL_LANES};
    use std::arch::x86_64::*;

    pub(super) static AVX2: KernelSet = KernelSet {
        name: "avx2",
        gemm_nt_f32: gemm_nt_f32_avx2,
        gemm_rank_f32: gemm_rank_f32_avx2,
        bias_act: bias_act_avx2,
        gru_gates: gru_gates_avx2,
        sum_abs_diff: sum_abs_diff_avx2,
        panel_gemv_i8: panel_gemv_i8_avx2,
        panel_gemv_f32: panel_gemv_f32_avx2,
        act_range: act_range_avx2,
        act_encode: act_encode_avx2,
        act_decode: act_decode_avx2,
    };

    pub(super) static AVX512: KernelSet = KernelSet {
        name: "avx512",
        gemm_nt_f32: gemm_nt_f32_avx512,
        gemm_rank_f32: gemm_rank_f32_avx512,
        bias_act: bias_act_avx512,
        gru_gates: gru_gates_avx512,
        sum_abs_diff: sum_abs_diff_avx512,
        // AVX-512F has no byte-granular multiply; without VNNI the best
        // int8 path on these CPUs is the 256-bit maddubs kernel (the set's
        // constructor also verifies AVX2).
        panel_gemv_i8: panel_gemv_i8_avx2,
        panel_gemv_f32: panel_gemv_f32_avx512,
        act_range: act_range_avx2,
        act_encode: act_encode_avx2,
        act_decode: act_decode_avx2,
    };

    /// The VNNI tier: f32 kernels identical to [`AVX512`], the int8 panel
    /// GEMV on `vpdpbusd` (u8×i8 quads accumulated directly into i32
    /// lanes).
    pub(super) static AVX512VNNI: KernelSet = KernelSet {
        name: "avx512vnni",
        gemm_nt_f32: gemm_nt_f32_avx512,
        gemm_rank_f32: gemm_rank_f32_avx512,
        bias_act: bias_act_avx512,
        gru_gates: gru_gates_avx512,
        sum_abs_diff: sum_abs_diff_avx512,
        panel_gemv_i8: panel_gemv_i8_vnni,
        panel_gemv_f32: panel_gemv_f32_avx512,
        act_range: act_range_avx2,
        act_encode: act_encode_avx2,
        act_decode: act_decode_avx2,
    };

    // Cephes-style polynomial `expf` constants (same as avx_mathfun /
    // SLEEF's fast path): Cody–Waite range reduction against ln 2 split
    // into a high and a low part, then a degree-5 minimax polynomial on
    // the reduced interval. Max relative error ≈ 2 ulp, which keeps the
    // derived sigmoid/tanh within ~2e-7 of `std` — well inside the 1e-6
    // equivalence budget the engine tests pin.
    const EXP_HI: f32 = 88.376_26;
    const EXP_LO: f32 = -88.376_26;
    const LOG2EF: f32 = std::f32::consts::LOG2_E;
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    const EXP_P0: f32 = 1.987_569_1e-4;
    const EXP_P1: f32 = 1.398_199_9e-3;
    const EXP_P2: f32 = 8.333_452e-3;
    const EXP_P3: f32 = 4.166_579_6e-2;
    const EXP_P4: f32 = 1.666_666_5e-1;
    const EXP_P5: f32 = 5.000_000_3e-1;

    // ---------------- AVX2 ----------------

    /// # Safety
    /// Requires AVX2+FMA (guaranteed by `KernelSet::avx2` detection).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp256(x: __m256) -> __m256 {
        let x = _mm256_min_ps(x, _mm256_set1_ps(EXP_HI));
        let x = _mm256_max_ps(x, _mm256_set1_ps(EXP_LO));
        // n = round(x / ln 2)
        let n = _mm256_round_ps(
            _mm256_mul_ps(x, _mm256_set1_ps(LOG2EF)),
            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC,
        );
        // Reduced argument r = x − n·ln2 (two-step for precision).
        let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(LN2_HI), x);
        let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(LN2_LO), r);
        // Polynomial e^r ≈ 1 + r + r²·p(r).
        let mut p = _mm256_set1_ps(EXP_P0);
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(EXP_P1));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(EXP_P2));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(EXP_P3));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(EXP_P4));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(EXP_P5));
        let r2 = _mm256_mul_ps(r, r);
        let y = _mm256_add_ps(_mm256_fmadd_ps(p, r2, r), _mm256_set1_ps(1.0));
        // Scale by 2ⁿ through the exponent bits.
        let pow2n = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            _mm256_cvtps_epi32(n),
            _mm256_set1_epi32(127),
        )));
        _mm256_mul_ps(y, pow2n)
    }

    /// # Safety
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sigmoid256(x: __m256) -> __m256 {
        // 1 / (1 + e^(−x)); the clamp inside exp256 handles saturation.
        let e = exp256(_mm256_sub_ps(_mm256_setzero_ps(), x));
        _mm256_div_ps(_mm256_set1_ps(1.0), _mm256_add_ps(_mm256_set1_ps(1.0), e))
    }

    /// # Safety
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tanh256(x: __m256) -> __m256 {
        // tanh(x) = (e^{2x} − 1) / (e^{2x} + 1).
        let e = exp256(_mm256_add_ps(x, x));
        let one = _mm256_set1_ps(1.0);
        _mm256_div_ps(_mm256_sub_ps(e, one), _mm256_add_ps(e, one))
    }

    /// Sums the 8 lanes of a register.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum256(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps::<1>(v);
        let s = _mm_add_ps(lo, hi);
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_movehdup_ps(s));
        _mm_cvtss_f32(s)
    }

    /// # Safety
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot_avx2_impl(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 32 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(i + 8)),
                _mm256_loadu_ps(pb.add(i + 8)),
                acc1,
            );
            acc2 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(i + 16)),
                _mm256_loadu_ps(pb.add(i + 16)),
                acc2,
            );
            acc3 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(i + 24)),
                _mm256_loadu_ps(pb.add(i + 24)),
                acc3,
            );
            i += 32;
        }
        while i + 8 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
            i += 8;
        }
        let acc = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
        let mut sum = hsum256(acc);
        while i < n {
            sum = a[i].mul_add(b[i], sum);
            i += 1;
        }
        sum
    }

    fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: reachable only through the detected AVX2 KernelSet's
        // `gemm_nt_f32`, whose "gemm_nt shape mismatch" assert makes `A`
        // and `B` whole rows `k` long, and `gemm_nt_rows` hands this fn
        // rows sliced exactly `k` long, so `b` is as long as `a`.
        unsafe { dot_avx2_impl(a, b) }
    }

    /// # Safety
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot4_avx2_impl(
        a: &[f32],
        b0: &[f32],
        b1: &[f32],
        b2: &[f32],
        b3: &[f32],
    ) -> [f32; 4] {
        let n = a.len();
        let pa = a.as_ptr();
        let (p0, p1, p2, p3) = (b0.as_ptr(), b1.as_ptr(), b2.as_ptr(), b3.as_ptr());
        // Two accumulators per row: enough independent FMA chains to cover
        // the FMA latency while still reusing each loaded chunk of `a`
        // across all four rows.
        let mut a00 = _mm256_setzero_ps();
        let mut a01 = _mm256_setzero_ps();
        let mut a10 = _mm256_setzero_ps();
        let mut a11 = _mm256_setzero_ps();
        let mut a20 = _mm256_setzero_ps();
        let mut a21 = _mm256_setzero_ps();
        let mut a30 = _mm256_setzero_ps();
        let mut a31 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 16 <= n {
            let va0 = _mm256_loadu_ps(pa.add(i));
            let va1 = _mm256_loadu_ps(pa.add(i + 8));
            a00 = _mm256_fmadd_ps(va0, _mm256_loadu_ps(p0.add(i)), a00);
            a01 = _mm256_fmadd_ps(va1, _mm256_loadu_ps(p0.add(i + 8)), a01);
            a10 = _mm256_fmadd_ps(va0, _mm256_loadu_ps(p1.add(i)), a10);
            a11 = _mm256_fmadd_ps(va1, _mm256_loadu_ps(p1.add(i + 8)), a11);
            a20 = _mm256_fmadd_ps(va0, _mm256_loadu_ps(p2.add(i)), a20);
            a21 = _mm256_fmadd_ps(va1, _mm256_loadu_ps(p2.add(i + 8)), a21);
            a30 = _mm256_fmadd_ps(va0, _mm256_loadu_ps(p3.add(i)), a30);
            a31 = _mm256_fmadd_ps(va1, _mm256_loadu_ps(p3.add(i + 8)), a31);
            i += 16;
        }
        if i + 8 <= n {
            let va = _mm256_loadu_ps(pa.add(i));
            a00 = _mm256_fmadd_ps(va, _mm256_loadu_ps(p0.add(i)), a00);
            a10 = _mm256_fmadd_ps(va, _mm256_loadu_ps(p1.add(i)), a10);
            a20 = _mm256_fmadd_ps(va, _mm256_loadu_ps(p2.add(i)), a20);
            a30 = _mm256_fmadd_ps(va, _mm256_loadu_ps(p3.add(i)), a30);
            i += 8;
        }
        let mut out = [
            hsum256(_mm256_add_ps(a00, a01)),
            hsum256(_mm256_add_ps(a10, a11)),
            hsum256(_mm256_add_ps(a20, a21)),
            hsum256(_mm256_add_ps(a30, a31)),
        ];
        while i < n {
            out[0] = a[i].mul_add(b0[i], out[0]);
            out[1] = a[i].mul_add(b1[i], out[1]);
            out[2] = a[i].mul_add(b2[i], out[2]);
            out[3] = a[i].mul_add(b3[i], out[3]);
            i += 1;
        }
        out
    }

    fn dot4_avx2(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
        // SAFETY: reachable only through the detected AVX2 KernelSet's
        // `gemm_nt_f32`, whose "gemm_nt shape mismatch" assert makes `A`
        // and `B` whole rows `k` long, and `gemm_nt_rows` hands this fn
        // rows sliced exactly `k` long, so all five slices are `a.len()`.
        unsafe { dot4_avx2_impl(a, b0, b1, b2, b3) }
    }

    fn gemm_nt_f32_avx2(a: &[f32], b: &[f32], c: &mut [f32], k: usize) {
        gemm_nt_rows(a, b, c, k, dot4_avx2, dot_avx2)
    }

    /// # Safety
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn bias_act_avx2_impl(row: &mut [f32], bias: &[f32], act: Activation) {
        debug_assert_eq!(row.len(), bias.len());
        let n = row.len();
        let (pr, pb) = (row.as_mut_ptr(), bias.as_ptr());
        let mut i = 0;
        match act {
            Activation::Linear => {
                while i + 8 <= n {
                    let v = _mm256_add_ps(_mm256_loadu_ps(pr.add(i)), _mm256_loadu_ps(pb.add(i)));
                    _mm256_storeu_ps(pr.add(i), v);
                    i += 8;
                }
            }
            Activation::Relu => {
                let zero = _mm256_setzero_ps();
                while i + 8 <= n {
                    let v = _mm256_add_ps(_mm256_loadu_ps(pr.add(i)), _mm256_loadu_ps(pb.add(i)));
                    _mm256_storeu_ps(pr.add(i), _mm256_max_ps(v, zero));
                    i += 8;
                }
            }
            Activation::Tanh => {
                while i + 8 <= n {
                    let v = _mm256_add_ps(_mm256_loadu_ps(pr.add(i)), _mm256_loadu_ps(pb.add(i)));
                    _mm256_storeu_ps(pr.add(i), tanh256(v));
                    i += 8;
                }
            }
            Activation::Sigmoid => {
                while i + 8 <= n {
                    let v = _mm256_add_ps(_mm256_loadu_ps(pr.add(i)), _mm256_loadu_ps(pb.add(i)));
                    _mm256_storeu_ps(pr.add(i), sigmoid256(v));
                    i += 8;
                }
            }
        }
        while i < n {
            row[i] = act.apply(row[i] + bias[i]);
            i += 1;
        }
    }

    fn bias_act_avx2(row: &mut [f32], bias: &[f32], act: Activation) {
        // SAFETY: reachable only through the detected AVX2 KernelSet.
        unsafe { bias_act_avx2_impl(row, bias, act) }
    }

    /// # Safety
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn gru_gates_avx2_impl(
        xp: &[f32],
        up: &[f32],
        h: &mut [f32],
        z: &mut [f32],
        r: &mut [f32],
    ) {
        let hidden = h.len();
        let (pxp, pup) = (xp.as_ptr(), up.as_ptr());
        let mut i = 0;
        while i + 8 <= hidden {
            let vz = sigmoid256(_mm256_add_ps(
                _mm256_loadu_ps(pxp.add(i)),
                _mm256_loadu_ps(pup.add(i)),
            ));
            let vr = sigmoid256(_mm256_add_ps(
                _mm256_loadu_ps(pxp.add(hidden + i)),
                _mm256_loadu_ps(pup.add(hidden + i)),
            ));
            let vn = tanh256(_mm256_fmadd_ps(
                vr,
                _mm256_loadu_ps(pup.add(2 * hidden + i)),
                _mm256_loadu_ps(pxp.add(2 * hidden + i)),
            ));
            let vh = _mm256_loadu_ps(h.as_ptr().add(i));
            // (1 − z)·n + z·h = n + z·(h − n)
            let vh_new = _mm256_fmadd_ps(vz, _mm256_sub_ps(vh, vn), vn);
            _mm256_storeu_ps(z.as_mut_ptr().add(i), vz);
            _mm256_storeu_ps(r.as_mut_ptr().add(i), vr);
            _mm256_storeu_ps(h.as_mut_ptr().add(i), vh_new);
            i += 8;
        }
        while i < hidden {
            z[i] = crate::sigmoid(xp[i] + up[i]);
            r[i] = crate::sigmoid(xp[hidden + i] + up[hidden + i]);
            let n = (xp[2 * hidden + i] + r[i] * up[2 * hidden + i]).tanh();
            h[i] = n + z[i] * (h[i] - n);
            i += 1;
        }
    }

    fn gru_gates_avx2(xp: &[f32], up: &[f32], h: &mut [f32], z: &mut [f32], r: &mut [f32]) {
        // SAFETY: reachable only through the detected AVX2 KernelSet.
        unsafe { gru_gates_avx2_impl(xp, up, h, z, r) }
    }

    /// # Safety
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sum_abs_diff_avx2_impl(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        // abs via clearing the sign bit.
        let mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 16 <= n {
            let d0 = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
            let d1 = _mm256_sub_ps(
                _mm256_loadu_ps(pa.add(i + 8)),
                _mm256_loadu_ps(pb.add(i + 8)),
            );
            acc0 = _mm256_add_ps(acc0, _mm256_and_ps(d0, mask));
            acc1 = _mm256_add_ps(acc1, _mm256_and_ps(d1, mask));
            i += 16;
        }
        if i + 8 <= n {
            let d = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
            acc0 = _mm256_add_ps(acc0, _mm256_and_ps(d, mask));
            i += 8;
        }
        let mut sum = hsum256(_mm256_add_ps(acc0, acc1));
        while i < n {
            sum += (a[i] - b[i]).abs();
            i += 1;
        }
        sum
    }

    fn sum_abs_diff_avx2(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: reachable only through the detected AVX2 KernelSet.
        unsafe { sum_abs_diff_avx2_impl(a, b) }
    }

    // ---------------- AVX-512F ----------------

    /// # Safety
    /// Requires AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn exp512(x: __m512) -> __m512 {
        let x = _mm512_min_ps(x, _mm512_set1_ps(EXP_HI));
        let x = _mm512_max_ps(x, _mm512_set1_ps(EXP_LO));
        let n = _mm512_roundscale_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
            _mm512_mul_ps(x, _mm512_set1_ps(LOG2EF)),
        );
        let r = _mm512_fnmadd_ps(n, _mm512_set1_ps(LN2_HI), x);
        let r = _mm512_fnmadd_ps(n, _mm512_set1_ps(LN2_LO), r);
        let mut p = _mm512_set1_ps(EXP_P0);
        p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(EXP_P1));
        p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(EXP_P2));
        p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(EXP_P3));
        p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(EXP_P4));
        p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(EXP_P5));
        let r2 = _mm512_mul_ps(r, r);
        let y = _mm512_add_ps(_mm512_fmadd_ps(p, r2, r), _mm512_set1_ps(1.0));
        let pow2n = _mm512_castsi512_ps(_mm512_slli_epi32::<23>(_mm512_add_epi32(
            _mm512_cvtps_epi32(n),
            _mm512_set1_epi32(127),
        )));
        _mm512_mul_ps(y, pow2n)
    }

    /// # Safety
    /// Requires AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn sigmoid512(x: __m512) -> __m512 {
        let e = exp512(_mm512_sub_ps(_mm512_setzero_ps(), x));
        _mm512_div_ps(_mm512_set1_ps(1.0), _mm512_add_ps(_mm512_set1_ps(1.0), e))
    }

    /// # Safety
    /// Requires AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn tanh512(x: __m512) -> __m512 {
        let e = exp512(_mm512_add_ps(x, x));
        let one = _mm512_set1_ps(1.0);
        _mm512_div_ps(_mm512_sub_ps(e, one), _mm512_add_ps(e, one))
    }

    /// # Safety
    /// Requires AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn dot_avx512_impl(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm512_setzero_ps();
        let mut acc1 = _mm512_setzero_ps();
        let mut acc2 = _mm512_setzero_ps();
        let mut acc3 = _mm512_setzero_ps();
        let mut i = 0;
        while i + 64 <= n {
            acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(pa.add(i)), _mm512_loadu_ps(pb.add(i)), acc0);
            acc1 = _mm512_fmadd_ps(
                _mm512_loadu_ps(pa.add(i + 16)),
                _mm512_loadu_ps(pb.add(i + 16)),
                acc1,
            );
            acc2 = _mm512_fmadd_ps(
                _mm512_loadu_ps(pa.add(i + 32)),
                _mm512_loadu_ps(pb.add(i + 32)),
                acc2,
            );
            acc3 = _mm512_fmadd_ps(
                _mm512_loadu_ps(pa.add(i + 48)),
                _mm512_loadu_ps(pb.add(i + 48)),
                acc3,
            );
            i += 64;
        }
        while i + 16 <= n {
            acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(pa.add(i)), _mm512_loadu_ps(pb.add(i)), acc0);
            i += 16;
        }
        if i < n {
            let m: __mmask16 = (1u16 << (n - i)) - 1;
            acc1 = _mm512_fmadd_ps(
                _mm512_maskz_loadu_ps(m, pa.add(i)),
                _mm512_maskz_loadu_ps(m, pb.add(i)),
                acc1,
            );
        }
        let acc = _mm512_add_ps(_mm512_add_ps(acc0, acc1), _mm512_add_ps(acc2, acc3));
        _mm512_reduce_add_ps(acc)
    }

    /// Dot products of `R` rows of `A` against four rows of `B`, all `n`
    /// long, each loaded chunk of `B` serving all `R` rows. Per output two
    /// accumulators: the 32-step fills both halves, a 16-step the first,
    /// the masked tail the second; their sum is reduced. An output's chain
    /// does not depend on `R`, so a row of the two-row GEMM block is
    /// bitwise the one-row block's.
    ///
    /// # Safety
    /// Requires AVX-512F and every pointer valid for `n` reads.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn dot4_rows_avx512<const R: usize>(
        pa: [*const f32; R],
        pb: [*const f32; 4],
        n: usize,
    ) -> [[f32; 4]; R] {
        let mut lo = [[_mm512_setzero_ps(); 4]; R];
        let mut hi = [[_mm512_setzero_ps(); 4]; R];
        let mut i = 0;
        while i + 32 <= n {
            let v0 = pa.map(|p| _mm512_loadu_ps(p.add(i)));
            let v1 = pa.map(|p| _mm512_loadu_ps(p.add(i + 16)));
            for (q, p) in pb.iter().enumerate() {
                let (w0, w1) = (_mm512_loadu_ps(p.add(i)), _mm512_loadu_ps(p.add(i + 16)));
                for r in 0..R {
                    lo[r][q] = _mm512_fmadd_ps(v0[r], w0, lo[r][q]);
                    hi[r][q] = _mm512_fmadd_ps(v1[r], w1, hi[r][q]);
                }
            }
            i += 32;
        }
        if i + 16 <= n {
            let v = pa.map(|p| _mm512_loadu_ps(p.add(i)));
            for (q, p) in pb.iter().enumerate() {
                let w = _mm512_loadu_ps(p.add(i));
                for (acc, &v) in lo.iter_mut().zip(&v) {
                    acc[q] = _mm512_fmadd_ps(v, w, acc[q]);
                }
            }
            i += 16;
        }
        if i < n {
            let m: __mmask16 = (1u16 << (n - i)) - 1;
            let v = pa.map(|p| _mm512_maskz_loadu_ps(m, p.add(i)));
            for (q, p) in pb.iter().enumerate() {
                let w = _mm512_maskz_loadu_ps(m, p.add(i));
                for (acc, &v) in hi.iter_mut().zip(&v) {
                    acc[q] = _mm512_fmadd_ps(v, w, acc[q]);
                }
            }
        }
        let mut out = [[0.0f32; 4]; R];
        for ((o, lo), hi) in out.iter_mut().zip(&lo).zip(&hi) {
            for q in 0..4 {
                o[q] = _mm512_reduce_add_ps(_mm512_add_ps(lo[q], hi[q]));
            }
        }
        out
    }

    /// Rows of `A` per pass of the AVX-512 nt-GEMM: two rows' sixteen
    /// accumulators, their four chunk registers and a loaded pair of `B`
    /// take 22 of the 32 zmm.
    const NT_ROWS_AVX512: usize = 2;

    /// # Safety
    /// Requires AVX-512F and the shapes `KernelSet::gemm_nt_f32` asserts,
    /// with `k ≥ 1` and `C` non-empty.
    #[target_feature(enable = "avx512f")]
    unsafe fn gemm_nt_f32_avx512_impl(a: &[f32], b: &[f32], c: &mut [f32], k: usize) {
        let (m, n) = (a.len() / k, b.len() / k);
        let rows = |s: &[f32], r: usize| s[r * k..(r + 1) * k].as_ptr();
        // Groups of four rows of `B` outer: a group stays in L1 while every
        // pair of rows of `A` passes it.
        for j in (0..n / 4 * 4).step_by(4) {
            let pb = [rows(b, j), rows(b, j + 1), rows(b, j + 2), rows(b, j + 3)];
            let mut i = 0;
            while i + NT_ROWS_AVX512 <= m {
                let pa = [rows(a, i), rows(a, i + 1)];
                let out = dot4_rows_avx512::<NT_ROWS_AVX512>(pa, pb, k);
                for (r, o) in out.iter().enumerate() {
                    c[(i + r) * n + j..][..4].copy_from_slice(o);
                }
                i += NT_ROWS_AVX512;
            }
            if i < m {
                let [o] = dot4_rows_avx512::<1>([rows(a, i)], pb, k);
                c[i * n + j..][..4].copy_from_slice(&o);
            }
        }
        for j in n / 4 * 4..n {
            let brow = &b[j * k..(j + 1) * k];
            for (i, arow) in a.chunks_exact(k).enumerate() {
                c[i * n + j] = dot_avx512_impl(arow, brow);
            }
        }
    }

    fn gemm_nt_f32_avx512(a: &[f32], b: &[f32], c: &mut [f32], k: usize) {
        // SAFETY: reachable only through the detected AVX-512 KernelSets,
        // and only through `KernelSet::gemm_nt_f32`, whose "gemm_nt shape
        // mismatch" assert (and early returns for `k = 0` or an empty `C`)
        // are the kernel's requirements.
        unsafe { gemm_nt_f32_avx512_impl(a, b, c, k) }
    }

    /// # Safety
    /// Requires AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn bias_act_avx512_impl(row: &mut [f32], bias: &[f32], act: Activation) {
        debug_assert_eq!(row.len(), bias.len());
        let n = row.len();
        let (pr, pb) = (row.as_mut_ptr(), bias.as_ptr());
        let mut i = 0;
        match act {
            Activation::Linear => {
                while i + 16 <= n {
                    let v = _mm512_add_ps(_mm512_loadu_ps(pr.add(i)), _mm512_loadu_ps(pb.add(i)));
                    _mm512_storeu_ps(pr.add(i), v);
                    i += 16;
                }
            }
            Activation::Relu => {
                let zero = _mm512_setzero_ps();
                while i + 16 <= n {
                    let v = _mm512_add_ps(_mm512_loadu_ps(pr.add(i)), _mm512_loadu_ps(pb.add(i)));
                    _mm512_storeu_ps(pr.add(i), _mm512_max_ps(v, zero));
                    i += 16;
                }
            }
            Activation::Tanh => {
                while i + 16 <= n {
                    let v = _mm512_add_ps(_mm512_loadu_ps(pr.add(i)), _mm512_loadu_ps(pb.add(i)));
                    _mm512_storeu_ps(pr.add(i), tanh512(v));
                    i += 16;
                }
            }
            Activation::Sigmoid => {
                while i + 16 <= n {
                    let v = _mm512_add_ps(_mm512_loadu_ps(pr.add(i)), _mm512_loadu_ps(pb.add(i)));
                    _mm512_storeu_ps(pr.add(i), sigmoid512(v));
                    i += 16;
                }
            }
        }
        while i < n {
            row[i] = act.apply(row[i] + bias[i]);
            i += 1;
        }
    }

    fn bias_act_avx512(row: &mut [f32], bias: &[f32], act: Activation) {
        // SAFETY: reachable only through the detected AVX-512 KernelSet.
        unsafe { bias_act_avx512_impl(row, bias, act) }
    }

    /// # Safety
    /// Requires AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn gru_gates_avx512_impl(
        xp: &[f32],
        up: &[f32],
        h: &mut [f32],
        z: &mut [f32],
        r: &mut [f32],
    ) {
        let hidden = h.len();
        let (pxp, pup) = (xp.as_ptr(), up.as_ptr());
        let mut i = 0;
        while i + 16 <= hidden {
            let vz = sigmoid512(_mm512_add_ps(
                _mm512_loadu_ps(pxp.add(i)),
                _mm512_loadu_ps(pup.add(i)),
            ));
            let vr = sigmoid512(_mm512_add_ps(
                _mm512_loadu_ps(pxp.add(hidden + i)),
                _mm512_loadu_ps(pup.add(hidden + i)),
            ));
            let vn = tanh512(_mm512_fmadd_ps(
                vr,
                _mm512_loadu_ps(pup.add(2 * hidden + i)),
                _mm512_loadu_ps(pxp.add(2 * hidden + i)),
            ));
            let vh = _mm512_loadu_ps(h.as_ptr().add(i));
            let vh_new = _mm512_fmadd_ps(vz, _mm512_sub_ps(vh, vn), vn);
            _mm512_storeu_ps(z.as_mut_ptr().add(i), vz);
            _mm512_storeu_ps(r.as_mut_ptr().add(i), vr);
            _mm512_storeu_ps(h.as_mut_ptr().add(i), vh_new);
            i += 16;
        }
        while i < hidden {
            z[i] = crate::sigmoid(xp[i] + up[i]);
            r[i] = crate::sigmoid(xp[hidden + i] + up[hidden + i]);
            let n = (xp[2 * hidden + i] + r[i] * up[2 * hidden + i]).tanh();
            h[i] = n + z[i] * (h[i] - n);
            i += 1;
        }
    }

    fn gru_gates_avx512(xp: &[f32], up: &[f32], h: &mut [f32], z: &mut [f32], r: &mut [f32]) {
        // SAFETY: reachable only through the detected AVX-512 KernelSet.
        unsafe { gru_gates_avx512_impl(xp, up, h, z, r) }
    }

    /// # Safety
    /// Requires AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn sum_abs_diff_avx512_impl(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm512_setzero_ps();
        let mut acc1 = _mm512_setzero_ps();
        let mut i = 0;
        while i + 32 <= n {
            let d0 = _mm512_sub_ps(_mm512_loadu_ps(pa.add(i)), _mm512_loadu_ps(pb.add(i)));
            let d1 = _mm512_sub_ps(
                _mm512_loadu_ps(pa.add(i + 16)),
                _mm512_loadu_ps(pb.add(i + 16)),
            );
            acc0 = _mm512_add_ps(acc0, _mm512_abs_ps(d0));
            acc1 = _mm512_add_ps(acc1, _mm512_abs_ps(d1));
            i += 32;
        }
        if i + 16 <= n {
            let d = _mm512_sub_ps(_mm512_loadu_ps(pa.add(i)), _mm512_loadu_ps(pb.add(i)));
            acc0 = _mm512_add_ps(acc0, _mm512_abs_ps(d));
            i += 16;
        }
        if i < n {
            let m: __mmask16 = (1u16 << (n - i)) - 1;
            let d = _mm512_sub_ps(
                _mm512_maskz_loadu_ps(m, pa.add(i)),
                _mm512_maskz_loadu_ps(m, pb.add(i)),
            );
            acc1 = _mm512_add_ps(acc1, _mm512_abs_ps(d));
        }
        _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1))
    }

    fn sum_abs_diff_avx512(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: reachable only through the detected AVX-512 KernelSet.
        unsafe { sum_abs_diff_avx512_impl(a, b) }
    }

    // ---------------- f32 panel GEMV ----------------
    //
    // Both kernels walk the row blocks in groups and keep one accumulator
    // register per block (AVX-512) or two (AVX2) for the whole of `k`. Per
    // `k` the activation is read, and the `k` is skipped if it is zero
    // (about a third of a stacked profile window: absent TCP options and
    // flags), sparing the weight column's lines; otherwise each block's
    // aligned 64-byte weight line is loaded and fused into that block's
    // accumulator. A lane therefore runs the chain `acc = fma(x[k],
    // w[k][lane], acc)`, `k` ascending from a zero accumulator, whatever
    // the register width and however the blocks are grouped — which is
    // why the two kernels agree bit for bit. The blocks of a group are
    // independent chains; enough of them in flight cover the FMA latency.

    /// Row blocks per group of the AVX-512 GEMV: eight zmm chains cover a
    /// 4-cycle FMA at two issues a cycle.
    const BLOCKS_AVX512: usize = 8;
    /// Row blocks per group of the AVX2 GEMV: eight ymm chains again, two
    /// to a block, and what sixteen registers hold without spilling.
    const BLOCKS_AVX2: usize = 4;

    /// `NB` row blocks of the AVX-512 f32 panel GEMV: `w` holds the
    /// blocks' `NB · cols` lines and `x` the activation row; the blocks'
    /// `live` outputs go to `py`.
    ///
    /// # Safety
    /// Requires AVX-512F, `w.len() == NB · cols`, `x.len() == cols`,
    /// `(NB − 1) · 16 < live <= NB · 16`, and `py` valid for `live` writes.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn panel_gemv_blocks_f32_avx512<const NB: usize>(
        w: &[PanelLine],
        x: &[f32],
        py: *mut f32,
        live: usize,
    ) {
        let (pw, cols) = (w.as_ptr() as *const f32, x.len());
        let mut acc = [_mm512_setzero_ps(); NB];
        for (k, &xk) in x.iter().enumerate() {
            if xk == 0.0 {
                continue;
            }
            let xv = _mm512_set1_ps(xk);
            for (j, a) in acc.iter_mut().enumerate() {
                let line = _mm512_load_ps(pw.add((j * cols + k) * PANEL_LANES));
                *a = _mm512_fmadd_ps(xv, line, *a);
            }
        }
        // Only `live` outputs exist: the pad lanes of a ragged last block
        // are masked out of the store.
        for (j, a) in acc.iter().enumerate() {
            let lanes = (live - j * PANEL_LANES).min(PANEL_LANES);
            let mask = ((1u32 << lanes) - 1) as __mmask16;
            _mm512_mask_storeu_ps(py.add(j * PANEL_LANES), mask, *a);
        }
    }

    /// The AVX-512 GEMV in groups of up to `BLOCKS_AVX512` blocks.
    ///
    /// # Safety
    /// Requires AVX-512F, `x.len() == cols` and `w.len() ==
    /// y.len().div_ceil(16) · cols`.
    #[target_feature(enable = "avx512f")]
    unsafe fn panel_gemv_f32_avx512_impl(
        mut w: &[PanelLine],
        cols: usize,
        x: &[f32],
        y: &mut [f32],
    ) {
        let (n, py) = (y.len(), y.as_mut_ptr());
        let mut r0 = 0;
        while r0 < n {
            let nb = (n - r0).div_ceil(PANEL_LANES).min(BLOCKS_AVX512);
            let (group, rest) = w.split_at(nb * cols);
            w = rest;
            let (py, live) = (py.add(r0), (n - r0).min(nb * PANEL_LANES));
            match nb {
                1 => panel_gemv_blocks_f32_avx512::<1>(group, x, py, live),
                2 => panel_gemv_blocks_f32_avx512::<2>(group, x, py, live),
                3 => panel_gemv_blocks_f32_avx512::<3>(group, x, py, live),
                4 => panel_gemv_blocks_f32_avx512::<4>(group, x, py, live),
                5 => panel_gemv_blocks_f32_avx512::<5>(group, x, py, live),
                6 => panel_gemv_blocks_f32_avx512::<6>(group, x, py, live),
                7 => panel_gemv_blocks_f32_avx512::<7>(group, x, py, live),
                _ => panel_gemv_blocks_f32_avx512::<BLOCKS_AVX512>(group, x, py, live),
            }
            r0 += nb * PANEL_LANES;
        }
    }

    fn panel_gemv_f32_avx512(w: &[PanelLine], cols: usize, x: &[f32], y: &mut [f32]) {
        // SAFETY: reachable only through the detected AVX-512 KernelSets,
        // and only through `KernelSet::panel_gemv_f32`, whose "panel
        // activation row mismatch" and "panel shape mismatch" asserts are
        // the kernel's length requirements.
        unsafe { panel_gemv_f32_avx512_impl(w, cols, x, y) }
    }

    /// `NB` row blocks of the AVX2 f32 panel GEMV (two ymm per block): `w`
    /// holds the blocks' `NB · cols` lines and `x` the activation row; the
    /// blocks' `live` outputs go to `py`.
    ///
    /// # Safety
    /// Requires AVX2+FMA, `w.len() == NB · cols`, `x.len() == cols`,
    /// `(NB − 1) · 16 < live <= NB · 16`, and `py` valid for `live` writes.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn panel_gemv_blocks_f32_avx2<const NB: usize>(
        w: &[PanelLine],
        x: &[f32],
        py: *mut f32,
        live: usize,
    ) {
        let (pw, cols) = (w.as_ptr() as *const f32, x.len());
        // Block `j`: lanes 0..8 in `acc[j][0]`, 8..16 in `acc[j][1]`.
        let mut acc = [[_mm256_setzero_ps(); 2]; NB];
        for (k, &xk) in x.iter().enumerate() {
            if xk == 0.0 {
                continue;
            }
            let xv = _mm256_set1_ps(xk);
            for (j, [lo, hi]) in acc.iter_mut().enumerate() {
                let line = pw.add((j * cols + k) * PANEL_LANES);
                *lo = _mm256_fmadd_ps(xv, _mm256_load_ps(line), *lo);
                *hi = _mm256_fmadd_ps(xv, _mm256_load_ps(line.add(8)), *hi);
            }
        }
        // Only `live` outputs exist: a ragged last block's pad lanes stay
        // in `out`.
        for (j, [lo, hi]) in acc.iter().enumerate() {
            let mut out = [0.0f32; PANEL_LANES];
            _mm256_storeu_ps(out.as_mut_ptr(), *lo);
            _mm256_storeu_ps(out.as_mut_ptr().add(8), *hi);
            let lanes = (live - j * PANEL_LANES).min(PANEL_LANES);
            std::ptr::copy_nonoverlapping(out.as_ptr(), py.add(j * PANEL_LANES), lanes);
        }
    }

    /// The AVX2 GEMV in groups of up to `BLOCKS_AVX2` blocks.
    ///
    /// # Safety
    /// Requires AVX2+FMA, `x.len() == cols` and `w.len() ==
    /// y.len().div_ceil(16) · cols`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn panel_gemv_f32_avx2_impl(mut w: &[PanelLine], cols: usize, x: &[f32], y: &mut [f32]) {
        let (n, py) = (y.len(), y.as_mut_ptr());
        let mut r0 = 0;
        while r0 < n {
            let nb = (n - r0).div_ceil(PANEL_LANES).min(BLOCKS_AVX2);
            let (group, rest) = w.split_at(nb * cols);
            w = rest;
            let (py, live) = (py.add(r0), (n - r0).min(nb * PANEL_LANES));
            match nb {
                1 => panel_gemv_blocks_f32_avx2::<1>(group, x, py, live),
                2 => panel_gemv_blocks_f32_avx2::<2>(group, x, py, live),
                3 => panel_gemv_blocks_f32_avx2::<3>(group, x, py, live),
                _ => panel_gemv_blocks_f32_avx2::<BLOCKS_AVX2>(group, x, py, live),
            }
            r0 += nb * PANEL_LANES;
        }
    }

    fn panel_gemv_f32_avx2(w: &[PanelLine], cols: usize, x: &[f32], y: &mut [f32]) {
        // SAFETY: reachable only through the detected AVX2 KernelSet, and
        // only through `KernelSet::panel_gemv_f32`, whose "panel activation
        // row mismatch" and "panel shape mismatch" asserts are the
        // kernel's length requirements.
        unsafe { panel_gemv_f32_avx2_impl(w, cols, x, y) }
    }

    // ---------------- f32 rank-update GEMM ----------------
    //
    // A tile of up to four rows of `C` by `NB` registers of columns lives
    // in accumulators for the whole of `K`. Per `k`, the tile's slice of row
    // `k` of `B` is loaded once (masked past the last live column, so a
    // ragged tile reads and writes nothing beyond it), then each row whose
    // `a(k, r)` is non-zero fuses it into that row's accumulators. Lane
    // `(r, j)` therefore runs `c = fma(a(k, r), B[k][j], c)` over `k`
    // ascending from `+0`, the chain `KernelSet::gemm_rank_f32` documents,
    // whatever the tile.

    /// Rows of `C` per rank-update tile, on both SIMD tiers.
    const RANK_ROWS: usize = 4;

    /// Where one rank-update tile's operands start and how they stride:
    /// `a(k, i) = *pa.add(k·ks + i·rs)`, `B[k][j] = *pb.add(k·n + j)`,
    /// `C[i][j] = *pc.add(i·n + j)`, for `k < kdim`, `i < rows`, `j <
    /// live`. A tile holds [`RANK_ROWS`] rows of accumulators; a last tile
    /// with fewer `rows` leaves the rest at zero and stores only its own.
    #[derive(Clone, Copy)]
    struct RankTile {
        pa: *const f32,
        strides: [usize; 2],
        pb: *const f32,
        pc: *mut f32,
        n: usize,
        kdim: usize,
        rows: usize,
        live: usize,
    }

    impl RankTile {
        /// Hands `tile` every tile of the rank-update GEMM, with the number
        /// of `lanes`-wide registers its `live` columns need: column groups
        /// `cols` wide outer, so a group's `K`-line slice of `B` stays
        /// cached while every row tile of `C` passes it.
        ///
        /// # Safety
        /// The shapes `KernelSet::gemm_rank_f32` asserts, with `K ≥ 1` and
        /// `C` non-empty.
        #[inline(always)]
        unsafe fn each(
            a: &[f32],
            strides: [usize; 2],
            b: &[f32],
            c: &mut [f32],
            n: usize,
            (cols, lanes): (usize, usize),
            mut tile: impl FnMut(RankTile, usize),
        ) {
            let m = c.len() / n;
            let (pa, pb, pc) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
            for j0 in (0..n).step_by(cols) {
                let live = (n - j0).min(cols);
                for r0 in (0..m).step_by(RANK_ROWS) {
                    let t = RankTile {
                        pa: pa.add(r0 * strides[1]),
                        strides,
                        pb: pb.add(j0),
                        pc: pc.add(r0 * n + j0),
                        n,
                        kdim: b.len() / n,
                        rows: (m - r0).min(RANK_ROWS),
                        live,
                    };
                    tile(t, live.div_ceil(lanes));
                }
            }
        }
    }

    /// One tile of `NB` ymm of columns of the AVX2 rank-update GEMM.
    ///
    /// # Safety
    /// Requires AVX2+FMA, `(NB − 1) · 8 < t.live <= NB · 8`, and `t`'s
    /// pointers valid at every `a(k, i)`, `B[k][j]` and `C[i][j]` it names.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn rank_tile_f32_avx2<const NB: usize>(t: RankTile) {
        let [ks, rs] = t.strides;
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mut mask = [lane; NB];
        for (j, m) in mask.iter_mut().enumerate() {
            *m = _mm256_cmpgt_epi32(_mm256_set1_epi32((t.live - 8 * j) as i32), lane);
        }
        let mut acc = [[_mm256_setzero_ps(); NB]; RANK_ROWS];
        for k in 0..t.kdim {
            let brow = t.pb.add(k * t.n);
            let mut line = [_mm256_setzero_ps(); NB];
            for (j, (v, &m)) in line.iter_mut().zip(&mask).enumerate() {
                *v = _mm256_maskload_ps(brow.add(8 * j), m);
            }
            for (i, row) in acc.iter_mut().enumerate().take(t.rows) {
                let av = *t.pa.add(k * ks + i * rs);
                if av == 0.0 {
                    continue;
                }
                let va = _mm256_set1_ps(av);
                for (c, &b) in row.iter_mut().zip(&line) {
                    *c = _mm256_fmadd_ps(va, b, *c);
                }
            }
        }
        for (i, row) in acc.iter().enumerate().take(t.rows) {
            for (j, (&c, &m)) in row.iter().zip(&mask).enumerate() {
                _mm256_maskstore_ps(t.pc.add(i * t.n + 8 * j), m, c);
            }
        }
    }

    /// # Safety
    /// Requires AVX2+FMA and the shapes `KernelSet::gemm_rank_f32` asserts,
    /// with `K ≥ 1` and `C` non-empty.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn gemm_rank_f32_avx2_impl(
        a: &[f32],
        strides: [usize; 2],
        b: &[f32],
        c: &mut [f32],
        n: usize,
    ) {
        RankTile::each(a, strides, b, c, n, (16, 8), |t, nb| match nb {
            1 => rank_tile_f32_avx2::<1>(t),
            _ => rank_tile_f32_avx2::<2>(t),
        });
    }

    fn gemm_rank_f32_avx2(a: &[f32], strides: [usize; 2], b: &[f32], c: &mut [f32], n: usize) {
        // SAFETY: reachable only through the detected AVX2 KernelSet, and
        // only through `KernelSet::gemm_rank_f32`, whose "gemm_rank shape
        // mismatch" and "gemm_rank operand out of bounds" asserts (and
        // early returns for an empty `C` or `K = 0`) are the kernel's
        // requirements.
        unsafe { gemm_rank_f32_avx2_impl(a, strides, b, c, n) }
    }

    /// Columns per rank-update tile of the AVX-512 GEMM: four zmm per row,
    /// so a 4-row tile is 16 accumulators beside four lines of `B`.
    const RANK_COLS_AVX512: usize = 64;

    /// One tile of `NB` zmm of columns of the AVX-512 rank-update GEMM.
    ///
    /// # Safety
    /// Requires AVX-512F, `(NB − 1) · 16 < t.live <= NB · 16`, and `t`'s
    /// pointers valid at every `a(k, i)`, `B[k][j]` and `C[i][j]` it names.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn rank_tile_f32_avx512<const NB: usize>(t: RankTile) {
        let [ks, rs] = t.strides;
        let mut mask = [0 as __mmask16; NB];
        for (j, m) in mask.iter_mut().enumerate() {
            let lanes = (t.live - 16 * j).min(16);
            *m = ((1u32 << lanes) - 1) as __mmask16;
        }
        let mut acc = [[_mm512_setzero_ps(); NB]; RANK_ROWS];
        for k in 0..t.kdim {
            let brow = t.pb.add(k * t.n);
            let mut line = [_mm512_setzero_ps(); NB];
            for (j, (v, &m)) in line.iter_mut().zip(&mask).enumerate() {
                *v = _mm512_maskz_loadu_ps(m, brow.add(16 * j));
            }
            for (i, row) in acc.iter_mut().enumerate().take(t.rows) {
                let av = *t.pa.add(k * ks + i * rs);
                if av == 0.0 {
                    continue;
                }
                let va = _mm512_set1_ps(av);
                for (c, &b) in row.iter_mut().zip(&line) {
                    *c = _mm512_fmadd_ps(va, b, *c);
                }
            }
        }
        for (i, row) in acc.iter().enumerate().take(t.rows) {
            for (j, (&c, &m)) in row.iter().zip(&mask).enumerate() {
                _mm512_mask_storeu_ps(t.pc.add(i * t.n + 16 * j), m, c);
            }
        }
    }

    /// # Safety
    /// Requires AVX-512F and the shapes `KernelSet::gemm_rank_f32` asserts,
    /// with `K ≥ 1` and `C` non-empty.
    #[target_feature(enable = "avx512f")]
    unsafe fn gemm_rank_f32_avx512_impl(
        a: &[f32],
        strides: [usize; 2],
        b: &[f32],
        c: &mut [f32],
        n: usize,
    ) {
        RankTile::each(
            a,
            strides,
            b,
            c,
            n,
            (RANK_COLS_AVX512, 16),
            |t, nb| match nb {
                1 => rank_tile_f32_avx512::<1>(t),
                2 => rank_tile_f32_avx512::<2>(t),
                3 => rank_tile_f32_avx512::<3>(t),
                _ => rank_tile_f32_avx512::<4>(t),
            },
        );
    }

    fn gemm_rank_f32_avx512(a: &[f32], strides: [usize; 2], b: &[f32], c: &mut [f32], n: usize) {
        // SAFETY: reachable only through the detected AVX-512 KernelSets,
        // and only through `KernelSet::gemm_rank_f32`, whose "gemm_rank
        // shape mismatch" and "gemm_rank operand out of bounds" asserts
        // (and early returns for an empty `C` or `K = 0`) are the kernel's
        // requirements.
        unsafe { gemm_rank_f32_avx512_impl(a, strides, b, c, n) }
    }

    // ---------------- int8 (AVX2 maddubs + AVX-512 VNNI) ----------------
    //
    // Both panel kernels compute acc[r] = Σ qa[k]·q[r][k] with qa: u8
    // (quantized activations, ≤127 by the quantizer's contract) and q: i8
    // weights, exactly, in one i32 per output lane: each k-quad broadcasts
    // four activation bytes to every lane of a 16-lane block. `vpmaddubsw`
    // forms pairwise u8×i8 products and saturates their i16 sum — with
    // qa ≤ 127 the pair sum is bounded by 2·127·127 = 32258 < 32767, so
    // saturation is unreachable and the result is the exact integer the
    // scalar reference computes. `vpdpbusd` accumulates u8×i8 quads
    // straight into i32 lanes (no i16 stage at all; VPDPBUSD does not
    // saturate — only the explicit VPDPBUSDS variant does). Integer
    // addition is associative, so splitting the k-quads over several
    // accumulators preserves bit-exact equality. The epilogue is the
    // scalar `dequantize` spelled per lane: mul, mul, add, mul.

    /// # Safety
    /// Requires AVX2. `w.q` must hold `y.len().div_ceil(16) · w.kq` quads,
    /// `w.scales`/`w.row_sums` `y.len().div_ceil(16) · 16` lanes and `qa`
    /// at least `4 · w.kq` bytes.
    #[target_feature(enable = "avx2")]
    unsafe fn panel_gemv_i8_avx2_impl(w: &Panels<'_>, qa: &[u8], act: ActQuant, y: &mut [f32]) {
        let ones = _mm256_set1_epi16(1);
        let (vs, vm) = (_mm256_set1_ps(act.scale), _mm256_set1_ps(act.min));
        let pa = qa.as_ptr() as *const i32;
        let mut pw = w.q.as_ptr() as *const __m256i;
        let (mut ps, mut pr) = (w.scales.as_ptr(), w.row_sums.as_ptr());
        for yb in y.chunks_mut(PANEL_LANES) {
            let mut lo = _mm256_setzero_si256();
            let mut hi = _mm256_setzero_si256();
            for k in 0..w.kq {
                let a = _mm256_set1_epi32(pa.add(k).read_unaligned());
                let m0 = _mm256_maddubs_epi16(a, _mm256_loadu_si256(pw));
                let m1 = _mm256_maddubs_epi16(a, _mm256_loadu_si256(pw.add(1)));
                lo = _mm256_add_epi32(lo, _mm256_madd_epi16(m0, ones));
                hi = _mm256_add_epi32(hi, _mm256_madd_epi16(m1, ones));
                pw = pw.add(2);
            }
            // Only `rows` outputs exist: a ragged last block lands in
            // `tail` and its pad lanes stay there.
            let mut tail = [0.0f32; PANEL_LANES];
            let full = yb.len() == PANEL_LANES;
            let po = if full {
                yb.as_mut_ptr()
            } else {
                tail.as_mut_ptr()
            };
            for (half, acc) in [lo, hi].into_iter().enumerate() {
                let t = _mm256_add_ps(
                    _mm256_mul_ps(vs, _mm256_cvtepi32_ps(acc)),
                    _mm256_mul_ps(vm, _mm256_loadu_ps(pr.add(8 * half))),
                );
                let v = _mm256_mul_ps(_mm256_loadu_ps(ps.add(8 * half)), t);
                _mm256_storeu_ps(po.add(8 * half), v);
            }
            if !full {
                yb.copy_from_slice(&tail[..yb.len()]);
            }
            (ps, pr) = (ps.add(PANEL_LANES), pr.add(PANEL_LANES));
        }
    }

    fn panel_gemv_i8_avx2(w: &Panels<'_>, qa: &[u8], act: ActQuant, y: &mut [f32]) {
        // SAFETY: reachable only through KernelSets whose constructors
        // verified AVX2 (the avx2 and avx512 sets), and only through
        // `KernelSet::panel_gemv_i8`, whose "panel shape mismatch" and
        // "panel activation row too short" asserts are the length
        // requirements above.
        unsafe { panel_gemv_i8_avx2_impl(w, qa, act, y) }
    }

    /// # Safety
    /// Requires AVX-512F+BW+VNNI; same length requirements as
    /// [`panel_gemv_i8_avx2_impl`].
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    unsafe fn panel_gemv_i8_vnni_impl(w: &Panels<'_>, qa: &[u8], act: ActQuant, y: &mut [f32]) {
        let (vs, vm) = (_mm512_set1_ps(act.scale), _mm512_set1_ps(act.min));
        let pa = qa.as_ptr() as *const i32;
        let mut pw = w.q.as_ptr() as *const __m512i;
        let (mut ps, mut pr) = (w.scales.as_ptr(), w.row_sums.as_ptr());
        for yb in y.chunks_mut(PANEL_LANES) {
            // Four independent accumulator chains cover the vpdpbusd
            // latency on the GRU's 8- and 10-quad panels.
            let mut acc = [_mm512_setzero_si512(); 4];
            let mut k = 0;
            while k + 4 <= w.kq {
                for (j, a) in acc.iter_mut().enumerate() {
                    *a = _mm512_dpbusd_epi32(
                        *a,
                        _mm512_set1_epi32(pa.add(k + j).read_unaligned()),
                        _mm512_loadu_si512(pw.add(j)),
                    );
                }
                pw = pw.add(4);
                k += 4;
            }
            while k < w.kq {
                acc[0] = _mm512_dpbusd_epi32(
                    acc[0],
                    _mm512_set1_epi32(pa.add(k).read_unaligned()),
                    _mm512_loadu_si512(pw),
                );
                pw = pw.add(1);
                k += 1;
            }
            let sum = _mm512_add_epi32(
                _mm512_add_epi32(acc[0], acc[1]),
                _mm512_add_epi32(acc[2], acc[3]),
            );
            let t = _mm512_add_ps(
                _mm512_mul_ps(vs, _mm512_cvtepi32_ps(sum)),
                _mm512_mul_ps(vm, _mm512_loadu_ps(pr)),
            );
            let v = _mm512_mul_ps(_mm512_loadu_ps(ps), t);
            // Only `rows` outputs exist: the last block's pad lanes are
            // masked out of the store.
            let mask = ((1u32 << yb.len()) - 1) as __mmask16;
            _mm512_mask_storeu_ps(yb.as_mut_ptr(), mask, v);
            (ps, pr) = (ps.add(PANEL_LANES), pr.add(PANEL_LANES));
        }
    }

    fn panel_gemv_i8_vnni(w: &Panels<'_>, qa: &[u8], act: ActQuant, y: &mut [f32]) {
        // SAFETY: reachable only through the detected AVX-512 VNNI set,
        // and only through `KernelSet::panel_gemv_i8`, whose "panel shape
        // mismatch" and "panel activation row too short" asserts are the
        // kernel's length requirements.
        unsafe { panel_gemv_i8_vnni_impl(w, qa, act, y) }
    }

    // ---------------- activation quantization ----------------

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn act_range_avx2_impl(x: &[f32]) -> (f32, f32) {
        let n = x.len();
        let p = x.as_ptr();
        let mut vmin = _mm256_set1_ps(f32::INFINITY);
        let mut vmax = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(p.add(i));
            // Operand order matters: vminps/vmaxps return the *second*
            // operand when either input is NaN, so with the data first a
            // NaN element yields the accumulated bound — NaN never enters
            // a lane, exactly the scalar kernel's select semantics.
            // (The reversed order would let a NaN overwrite the lane and
            // then be silently replaced by the next finite chunk, losing
            // real bounds.) ±inf still propagates into the result, where
            // the quantizer's finiteness check catches it.
            vmin = _mm256_min_ps(v, vmin);
            vmax = _mm256_max_ps(v, vmax);
            i += 8;
        }
        let mut lo = [0.0f32; 8];
        let mut hi = [0.0f32; 8];
        _mm256_storeu_ps(lo.as_mut_ptr(), vmin);
        _mm256_storeu_ps(hi.as_mut_ptr(), vmax);
        let (mut min, mut max) = (f32::INFINITY, f32::NEG_INFINITY);
        for k in 0..8 {
            min = if lo[k] < min { lo[k] } else { min };
            max = if hi[k] > max { hi[k] } else { max };
        }
        while i < n {
            let v = x[i];
            min = if v < min { v } else { min };
            max = if v > max { v } else { max };
            i += 1;
        }
        (min, max)
    }

    fn act_range_avx2(x: &[f32]) -> (f32, f32) {
        // SAFETY: reachable only through AVX2-verified KernelSets.
        unsafe { act_range_avx2_impl(x) }
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn act_encode_avx2_impl(x: &[f32], min: f32, inv: f32, out: &mut [u8]) {
        debug_assert_eq!(x.len(), out.len());
        let n = x.len();
        let p = x.as_ptr();
        let po = out.as_mut_ptr();
        let vmin = _mm256_set1_ps(min);
        let vinv = _mm256_set1_ps(inv);
        let half = _mm256_set1_ps(0.5);
        let cap = _mm256_set1_ps(127.0);
        let mut i = 0;
        while i + 16 <= n {
            // Same op sequence as the scalar kernel — sub, mul, add (no
            // FMA), ordered > compare keeping NaN — so codes are bitwise
            // identical.
            let mut t0 = _mm256_add_ps(
                _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(p.add(i)), vmin), vinv),
                half,
            );
            let mut t1 = _mm256_add_ps(
                _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(p.add(i + 8)), vmin), vinv),
                half,
            );
            let m0 = _mm256_cmp_ps::<_CMP_GT_OQ>(t0, cap);
            let m1 = _mm256_cmp_ps::<_CMP_GT_OQ>(t1, cap);
            t0 = _mm256_blendv_ps(t0, cap, m0);
            t1 = _mm256_blendv_ps(t1, cap, m1);
            // Truncate; NaN becomes 0x8000_0000, which the saturating
            // packs (i32→i16: → −32768) then packus (i16→u8: → 0) send to
            // code 0, matching the scalar cast.
            let i0 = _mm256_cvttps_epi32(t0);
            let i1 = _mm256_cvttps_epi32(t1);
            let packed16 = _mm256_permute4x64_epi64::<0b11011000>(_mm256_packs_epi32(i0, i1));
            let packed8 = _mm256_packus_epi16(packed16, packed16);
            let lo = _mm256_castsi256_si128(packed8);
            let hi = _mm256_extracti128_si256::<1>(packed8);
            _mm_storel_epi64(po.add(i) as *mut __m128i, lo);
            _mm_storel_epi64(po.add(i + 8) as *mut __m128i, hi);
            i += 16;
        }
        while i < n {
            let t = (x[i] - min) * inv + 0.5;
            out[i] = if t > 127.0 { 127.0 } else { t } as u8;
            i += 1;
        }
    }

    fn act_encode_avx2(x: &[f32], min: f32, inv: f32, out: &mut [u8]) {
        // SAFETY: reachable only through AVX2-verified KernelSets.
        unsafe { act_encode_avx2_impl(x, min, inv, out) }
    }

    /// # Safety
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn act_decode_avx2_impl(codes: &[u8], act: ActQuant, out: &mut [f32]) {
        super::act_decode_loop(codes, act, out)
    }

    fn act_decode_avx2(codes: &[u8], act: ActQuant, out: &mut [f32]) {
        // SAFETY: every SIMD KernelSet constructor verifies AVX2+FMA. The
        // body is safe code.
        unsafe { act_decode_avx2_impl(codes, act, out) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_set_is_the_reference_path() {
        let ks = KernelSet::scalar();
        assert_eq!(ks.name, "scalar");
        // The scalar dot is bitwise the documented lane-blocked reference.
        let a: Vec<f32> = (0..37).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..37).map(|i| (i as f32 * 0.91).cos()).collect();
        let mut lanes = [0.0f32; LANES];
        for (xa, xb) in a.chunks_exact(LANES).zip(b.chunks_exact(LANES)) {
            for i in 0..LANES {
                lanes[i] += xa[i] * xb[i];
            }
        }
        let mut expect: f32 = lanes.iter().sum();
        for i in (a.len() / LANES * LANES)..a.len() {
            expect += a[i] * b[i];
        }
        assert_eq!(dot_scalar(&a, &b), expect);
    }

    #[test]
    fn selection_defaults_to_the_widest_supported_set() {
        let best = select(None);
        if KernelSet::avx512vnni().is_some() {
            assert_eq!(best.name, "avx512vnni");
        } else if KernelSet::avx512().is_some() {
            assert_eq!(best.name, "avx512");
        } else if KernelSet::avx2().is_some() {
            assert_eq!(best.name, "avx2");
        } else {
            assert_eq!(best.name, "scalar");
        }
    }

    #[test]
    fn selection_honors_requested_set() {
        assert_eq!(select(Some("scalar")).name, "scalar");
        // A known set pins itself where the CPU has it and falls back to
        // the ladder where it does not — never a panic.
        for (name, set) in [
            ("avx2", KernelSet::avx2()),
            ("avx512", KernelSet::avx512()),
            ("avx512vnni", KernelSet::avx512vnni()),
        ] {
            let expect = set.unwrap_or_else(|| select(None));
            assert_eq!(select(Some(name)).name, expect.name);
        }
    }

    #[test]
    fn selection_rejects_unknown_names() {
        // A typo, the empty string, a wrong case and the name of the
        // retired 256-bit VNNI tier all panic, naming the accepted values,
        // instead of silently running the ladder under a leg that believes
        // it pinned something.
        for name in ["sclar", "", "AVX2", "neon", "avxvnni"] {
            let err = std::panic::catch_unwind(|| select(Some(name)))
                .expect_err("an unknown NEURAL_KERNELS value must panic");
            let msg = err.downcast_ref::<String>().expect("formatted message");
            assert!(
                msg.contains(&format!("{name:?}"))
                    && msg.contains("scalar, avx2, avx512, avx512vnni"),
                "unhelpful message: {msg}"
            );
        }
    }

    // The SIMD GEMM bodies size raw-pointer loads by `k` and `n`; the
    // public wrappers must reject a ragged operand in release builds too.

    #[test]
    #[should_panic(expected = "gemm_nt shape mismatch")]
    fn ragged_gemm_nt_operand_panics_not_ub() {
        // `B` is one and a half rows of 16.
        KernelSet::active().gemm_nt_f32(&[1.0; 16], &[1.0; 24], &mut [0.0; 1], 16);
    }

    #[test]
    #[should_panic(expected = "gemm_nt shape mismatch")]
    fn short_gemm_nt_output_panics_not_ub() {
        // 2 × 16 against 4 × 16 is 8 outputs, not 7.
        KernelSet::active().gemm_nt_f32(&[1.0; 32], &[1.0; 64], &mut [0.0; 7], 16);
    }

    #[test]
    #[should_panic(expected = "gemm_rank shape mismatch")]
    fn ragged_gemm_rank_operand_panics_not_ub() {
        // `B` is one and a half rows of 16.
        KernelSet::active().gemm_rank_f32(&[1.0; 4], [1, 1], &[1.0; 24], &mut [0.0; 16], 16);
    }

    #[test]
    #[should_panic(expected = "gemm_rank operand out of bounds")]
    fn short_gemm_rank_coefficients_panic_not_ub() {
        // Two rows of `C` over three `k` need `a(2, 1) = a[2·2 + 1]`.
        KernelSet::active().gemm_rank_f32(&[1.0; 5], [2, 1], &[1.0; 48], &mut [0.0; 32], 16);
    }

    #[test]
    #[should_panic(expected = "gru_gates shape mismatch")]
    fn mismatched_gate_shapes_panic_not_ub() {
        let (mut h, mut z, mut r) = (vec![0.0f32; 8], vec![0.0f32; 4], vec![0.0f32; 8]);
        KernelSet::active().gru_gates(&[0.0; 24], &[0.0; 24], &mut h, &mut z, &mut r);
    }

    #[test]
    fn available_always_includes_scalar() {
        let sets = KernelSet::available();
        assert_eq!(sets[0].name, "scalar");
        assert!(sets.len() <= 4);
        let mut names: Vec<&str> = sets.iter().map(|ks| ks.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), sets.len(), "set names must be distinct");
    }

    /// One 16-lane block of two k-quads (8 activation bytes) through the
    /// active set, with `qa_len` activation bytes and `rows` outputs.
    fn one_block_gemv(qa_len: usize, rows: usize) {
        let q = [PanelQuad([[1; PANEL_K]; PANEL_LANES]); 2];
        let lanes = [1.0f32; PANEL_LANES];
        let w = Panels {
            q: &q,
            kq: 2,
            scales: &lanes,
            row_sums: &lanes,
        };
        let act = ActQuant {
            scale: 1.0,
            min: 0.0,
        };
        KernelSet::active().panel_gemv_i8(&w, &vec![1; qa_len], act, &mut vec![0.0; rows]);
    }

    #[test]
    #[should_panic(expected = "panel activation row too short")]
    fn short_panel_activations_panic_not_ub() {
        // The SIMD bodies read 4·kq activation bytes through a raw
        // pointer; the public wrapper must reject a shorter row in
        // release builds too.
        one_block_gemv(7, 3);
    }

    #[test]
    #[should_panic(expected = "panel shape mismatch")]
    fn mismatched_panel_shapes_panic_not_ub() {
        // 17 outputs need two blocks of weights, scales and row sums.
        one_block_gemv(8, 17);
    }

    /// One 16-lane f32 block of 8 inputs through the active set's GEMV,
    /// with `x_len` activations and `rows` outputs.
    fn one_block_gemv_f32(x_len: usize, rows: usize) {
        let w = [PanelLine([1.0; PANEL_LANES]); 8];
        KernelSet::active().panel_gemv_f32(&w, 8, &vec![1.0; x_len], &mut vec![0.0; rows]);
    }

    #[test]
    #[should_panic(expected = "panel activation row mismatch")]
    fn short_f32_panel_activations_panic_not_ub() {
        // The SIMD bodies read `cols` activations through a raw pointer;
        // the public wrapper must reject a shorter row in release builds
        // too.
        one_block_gemv_f32(7, 3);
    }

    #[test]
    #[should_panic(expected = "panel shape mismatch")]
    fn mismatched_f32_panel_shapes_panic_not_ub() {
        // 17 outputs need two blocks of weight lines.
        one_block_gemv_f32(8, 17);
    }

    /// Every set's range scan must agree with scalar — including rows
    /// where a NaN sits mid-lane between the real extrema. Regression
    /// test: `vminps(vmin, v)` (accumulator first) lets a NaN overwrite a
    /// lane's bound and the next finite chunk then hides the NaN, losing
    /// real extrema; the data-first operand order keeps NaN out entirely.
    #[test]
    fn act_range_ignores_nan_without_losing_bounds() {
        let mut x = vec![1.0f32; 24];
        x[0] = 3.0; // real max, lane 0, first chunk
        x[8] = f32::NAN; // same lane, second chunk
        x[16] = 0.5; // same lane, third chunk — real min
        for ks in KernelSet::available() {
            assert_eq!(ks.act_range(&x), (0.5, 3.0), "{}", ks.name);
        }
        // All-NaN and ±inf rows must surface non-finite bounds so the
        // quantizer takes its filtering fallback.
        let nan_row = [f32::NAN; 9];
        let inf_row = [1.0, f32::INFINITY, 2.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        for ks in KernelSet::available() {
            let (lo, hi) = ks.act_range(&nan_row);
            assert!(!lo.is_finite() && !hi.is_finite(), "{}", ks.name);
            let (_, hi) = ks.act_range(&inf_row);
            assert!(!hi.is_finite(), "{}", ks.name);
        }
    }

    /// Every set's encode must emit bit-identical codes, NaN handling
    /// included (NaN → code 0).
    #[test]
    fn act_encode_is_bit_identical_across_sets() {
        let mut x: Vec<f32> = (0..37).map(|i| (i as f32 * 0.37).sin()).collect();
        x[5] = f32::NAN;
        let (min, inv) = (-1.0f32, 50.0f32);
        let mut want = vec![0u8; x.len()];
        KernelSet::scalar().act_encode(&x, min, inv, &mut want);
        assert_eq!(want[5], 0, "NaN must encode to code 0");
        for ks in KernelSet::available() {
            let mut got = vec![0xffu8; x.len()];
            ks.act_encode(&x, min, inv, &mut got);
            assert_eq!(got, want, "{}", ks.name);
        }
    }

    /// Saturation and extreme inputs through every available gate kernel:
    /// huge pre-activations must produce exactly-saturated gates, never
    /// NaN/inf (the vector exp clamps instead of overflowing).
    #[test]
    fn gate_kernels_saturate_cleanly() {
        for ks in KernelSet::available() {
            for &v in &[-1e4f32, -100.0, -20.0, 0.0, 20.0, 100.0, 1e4] {
                let hidden = 16;
                let xp = vec![v; 3 * hidden];
                let up = vec![0.0f32; 3 * hidden];
                let mut h = vec![0.25f32; hidden];
                let mut z = vec![0.0f32; hidden];
                let mut r = vec![0.0f32; hidden];
                ks.gru_gates(&xp, &up, &mut h, &mut z, &mut r);
                for i in 0..hidden {
                    assert!(
                        z[i].is_finite() && (0.0..=1.0).contains(&z[i]),
                        "{} z {v}",
                        ks.name
                    );
                    assert!(
                        r[i].is_finite() && (0.0..=1.0).contains(&r[i]),
                        "{} r {v}",
                        ks.name
                    );
                    assert!(
                        h[i].is_finite() && h[i].abs() <= 1.0 + 1e-6,
                        "{} h {v}",
                        ks.name
                    );
                    let want_z = crate::sigmoid(v);
                    assert!(
                        (z[i] - want_z).abs() < 1e-6,
                        "{} z {v}: {} vs {want_z}",
                        ks.name,
                        z[i]
                    );
                }
            }
        }
    }
}
