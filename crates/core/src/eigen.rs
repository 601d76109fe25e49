//! Eigenvalue estimation for the Chebyshev-family solvers.
//!
//! The paper (§III.D) estimates the extreme eigenvalues of `A` by running
//! a few plain CG iterations first: CG's `α`/`β` coefficients define a
//! Lanczos tridiagonal matrix whose spectrum approximates `A`'s extreme
//! eigenvalues from the inside. We extract those extremes with a
//! Sturm-sequence bisection written from scratch (no LAPACK in this
//! reproduction) and widen them by a safety factor, exactly as the
//! reference's `tea_calc_eigenvalues` + safety margins do.
//!
//! When the CG run is *preconditioned*, the same construction yields the
//! spectrum of `M⁻¹A` — which is how the block-Jacobi condition-number
//! claim (§IV.C.1) is measured.

/// Why an eigenvalue-estimate operation was rejected.
#[derive(Debug, Clone, PartialEq)]
enum EigenError {
    /// The widening factor must lie in `[0, 1)`: `factor >= 1` would
    /// drive the widened `min` to zero or below, and the Chebyshev
    /// constants derived from it would divide by zero / go NaN.
    InvalidWideningFactor {
        /// The rejected factor.
        factor: f64,
    },
}

impl std::fmt::Display for EigenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EigenError::InvalidWideningFactor { factor } => write!(
                f,
                "eigenvalue widening factor must be finite and in [0, 1), got {factor} \
                 (factor >= 1 makes the widened lower bound non-positive, which poisons \
                 the Chebyshev coefficients)"
            ),
        }
    }
}

impl std::error::Error for EigenError {}

/// An estimated spectral interval of the (preconditioned) operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EigenEstimate {
    /// Estimated smallest eigenvalue.
    pub min: f64,
    /// Estimated largest eigenvalue.
    pub max: f64,
}

impl EigenEstimate {
    /// Condition-number estimate `max / min`.
    pub fn condition_number(&self) -> f64 {
        self.max / self.min
    }

    /// Widens the interval by `factor` on each end (TeaLeaf applies a
    /// safety margin because the Lanczos extremes approach from inside
    /// the true spectrum; Chebyshev bounds must *contain* it).
    ///
    /// # Errors
    /// [`EigenError::InvalidWideningFactor`] unless `0 <= factor < 1`:
    /// a factor of 1 or more flips the sign of the widened `min`, and a
    /// positive spectrum is what [`crate::ChebyConstants`] divides by.
    fn try_widened(&self, factor: f64) -> Result<EigenEstimate, EigenError> {
        if !(factor.is_finite() && (0.0..1.0).contains(&factor)) {
            return Err(EigenError::InvalidWideningFactor { factor });
        }
        Ok(EigenEstimate {
            min: self.min * (1.0 - factor),
            max: self.max * (1.0 + factor),
        })
    }

    /// [`EigenEstimate::try_widened`] for infallible call sites.
    ///
    /// # Panics
    /// Panics with the [`EigenError`] message when `factor` is outside
    /// `[0, 1)` — a structured rejection instead of silently returning
    /// a non-positive `min` that would surface later as NaN Chebyshev
    /// coefficients.
    fn widened(&self, factor: f64) -> EigenEstimate {
        self.try_widened(factor).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Builds the Lanczos tridiagonal `(diag, offdiag)` from CG coefficients.
///
/// With CG step sizes `alphas[i]` and residual ratios `betas[i]`
/// (`betas[i] = rz_{i+1}/rz_i` produced at the end of iteration `i`), the
/// `m x m` Lanczos matrix is
///
/// ```text
/// T[0,0]   = 1/α₀
/// T[i,i]   = 1/αᵢ + β_{i-1}/α_{i-1}
/// T[i,i+1] = √βᵢ / αᵢ
/// ```
///
/// # Panics
/// Panics unless `betas.len() + 1 == alphas.len()` and all `alphas` are
/// nonzero and `betas` non-negative.
pub fn lanczos_tridiagonal(alphas: &[f64], betas: &[f64]) -> (Vec<f64>, Vec<f64>) {
    assert!(!alphas.is_empty(), "need at least one CG iteration");
    assert_eq!(
        betas.len() + 1,
        alphas.len(),
        "need one beta per CG iteration except the last"
    );
    let m = alphas.len();
    let mut diag = Vec::with_capacity(m);
    let mut off = Vec::with_capacity(m - 1);
    for i in 0..m {
        assert!(alphas[i] != 0.0, "zero CG alpha at iteration {i}");
        let mut d = 1.0 / alphas[i];
        if i > 0 {
            d += betas[i - 1] / alphas[i - 1];
        }
        diag.push(d);
        if i + 1 < m {
            assert!(betas[i] >= 0.0, "negative CG beta at iteration {i}");
            off.push(betas[i].sqrt() / alphas[i]);
        }
    }
    (diag, off)
}

/// Counts eigenvalues of the symmetric tridiagonal `(diag, off)` strictly
/// less than `x` via the Sturm sequence (LDLᵀ pivots).
pub fn sturm_count(diag: &[f64], off: &[f64], x: f64) -> usize {
    let n = diag.len();
    assert_eq!(off.len() + 1, n.max(1), "offdiagonal length mismatch");
    let mut count = 0;
    let mut d = diag[0] - x;
    if d < 0.0 {
        count += 1;
    }
    for i in 1..n {
        // guard against exact zero pivots with a tiny perturbation, the
        // classic LAPACK dstebz trick
        if d == 0.0 {
            d = f64::MIN_POSITIVE;
        }
        d = (diag[i] - x) - off[i - 1] * off[i - 1] / d;
        if d < 0.0 {
            count += 1;
        }
    }
    count
}

/// Gershgorin interval certainly containing all eigenvalues.
fn gershgorin(diag: &[f64], off: &[f64]) -> (f64, f64) {
    let n = diag.len();
    let radius = |i: usize| -> f64 {
        let left = if i > 0 { off[i - 1].abs() } else { 0.0 };
        let right = if i + 1 < n { off[i].abs() } else { 0.0 };
        left + right
    };
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (i, &d) in diag.iter().enumerate() {
        lo = lo.min(d - radius(i));
        hi = hi.max(d + radius(i));
    }
    (lo, hi)
}

/// The `k`-th smallest eigenvalue (0-based) of the symmetric tridiagonal
/// `(diag, off)`, by bisection on the Sturm count.
fn tridiag_eigenvalue(diag: &[f64], off: &[f64], k: usize) -> f64 {
    let n = diag.len();
    assert!(k < n, "eigenvalue index out of range");
    let (mut lo, mut hi) = gershgorin(diag, off);
    // widen a hair so the count brackets are strict
    let width = (hi - lo).max(1.0);
    lo -= 1e-12 * width;
    hi += 1e-12 * width;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if sturm_count(diag, off, mid) <= k {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo) <= 1e-14 * hi.abs().max(lo.abs()).max(1.0) {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// Smallest and largest eigenvalues of the symmetric tridiagonal.
fn tridiag_extreme_eigenvalues(diag: &[f64], off: &[f64]) -> (f64, f64) {
    let n = diag.len();
    (
        tridiag_eigenvalue(diag, off, 0),
        tridiag_eigenvalue(diag, off, n - 1),
    )
}

/// All eigenvalues, ascending (test/diagnostic helper; O(n² log ε)).
pub fn tridiag_all_eigenvalues(diag: &[f64], off: &[f64]) -> Vec<f64> {
    (0..diag.len())
        .map(|k| tridiag_eigenvalue(diag, off, k))
        .collect()
}

/// Estimates the operator spectrum from recorded CG coefficients and
/// widens by `safety` (reference default 1%–10%; we use 5% max-side and
/// 5% min-side via `EigenEstimate::widened`).
pub fn estimate_from_cg(alphas: &[f64], betas: &[f64], safety: f64) -> EigenEstimate {
    let (diag, off) = lanczos_tridiagonal(alphas, betas);
    let (min, max) = tridiag_extreme_eigenvalues(&diag, &off);
    EigenEstimate { min, max }.widened(safety)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1D Laplacian tridiagonal: diag 2, off -1; eigenvalues
    /// 2 - 2 cos(kπ/(n+1)).
    fn laplacian(n: usize) -> (Vec<f64>, Vec<f64>) {
        (vec![2.0; n], vec![-1.0; n - 1])
    }

    #[test]
    fn sturm_count_brackets_known_spectrum() {
        let (d, e) = laplacian(8);
        assert_eq!(sturm_count(&d, &e, -0.1), 0);
        assert_eq!(sturm_count(&d, &e, 4.1), 8);
        assert_eq!(sturm_count(&d, &e, 2.0), 4, "half the spectrum below 2");
    }

    #[test]
    fn extreme_eigenvalues_match_laplacian_formula() {
        for n in [2usize, 5, 16, 33] {
            let (d, e) = laplacian(n);
            let (lo, hi) = tridiag_extreme_eigenvalues(&d, &e);
            let t = std::f64::consts::PI / (n as f64 + 1.0);
            let exact_lo = 2.0 - 2.0 * t.cos();
            let exact_hi = 2.0 - 2.0 * (n as f64 * t).cos();
            assert!((lo - exact_lo).abs() < 1e-10, "n={n}: {lo} vs {exact_lo}");
            assert!((hi - exact_hi).abs() < 1e-10, "n={n}: {hi} vs {exact_hi}");
        }
    }

    #[test]
    fn all_eigenvalues_sorted_and_complete() {
        let (d, e) = laplacian(10);
        let eigs = tridiag_all_eigenvalues(&d, &e);
        assert_eq!(eigs.len(), 10);
        for w in eigs.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        let t = std::f64::consts::PI / 11.0;
        for (k, &ev) in eigs.iter().enumerate() {
            let exact = 2.0 - 2.0 * ((k as f64 + 1.0) * t).cos();
            assert!((ev - exact).abs() < 1e-10);
        }
    }

    #[test]
    fn single_element_matrix() {
        let (lo, hi) = tridiag_extreme_eigenvalues(&[3.5], &[]);
        assert!((lo - 3.5).abs() < 1e-10);
        assert!((hi - 3.5).abs() < 1e-10);
    }

    #[test]
    fn diagonal_matrix_eigenvalues_are_entries() {
        let d = vec![5.0, -1.0, 2.0, 7.0];
        let e = vec![0.0, 0.0, 0.0];
        let eigs = tridiag_all_eigenvalues(&d, &e);
        let mut want = d.clone();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (a, b) in eigs.iter().zip(&want) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn lanczos_construction_shapes() {
        let (d, e) = lanczos_tridiagonal(&[0.5, 0.25], &[0.04]);
        assert_eq!(d.len(), 2);
        assert_eq!(e.len(), 1);
        assert_eq!(d[0], 2.0);
        assert!((d[1] - (4.0 + 0.04 / 0.5)).abs() < 1e-15);
        assert!((e[0] - 0.2 / 0.5).abs() < 1e-15);
    }

    #[test]
    fn lanczos_of_identity_like_cg() {
        // if A = c*I, CG converges in one step with alpha = 1/c; the
        // 1x1 Lanczos matrix must be exactly c
        let est = estimate_from_cg(&[0.25], &[], 0.0);
        assert!((est.min - 4.0).abs() < 1e-12);
        assert!((est.max - 4.0).abs() < 1e-12);
    }

    #[test]
    fn widened_contains_original() {
        let e = EigenEstimate {
            min: 1.0,
            max: 10.0,
        };
        let w = e.widened(0.05);
        assert!(w.min < 1.0 && w.max > 10.0);
        assert!((e.condition_number() - 10.0).abs() < 1e-15);
        assert!(w.condition_number() > 10.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_beta_length_panics() {
        let _ = lanczos_tridiagonal(&[0.5, 0.5], &[0.1, 0.1]);
    }

    #[test]
    fn widening_rejects_degenerate_factors() {
        let e = EigenEstimate {
            min: 1.0,
            max: 10.0,
        };
        // factor >= 1 used to yield min <= 0 and downstream NaN
        // Chebyshev coefficients; now it is a structured error
        for bad in [1.0, 1.5, -0.1, f64::NAN, f64::INFINITY] {
            let err = e.try_widened(bad).unwrap_err();
            assert!(
                matches!(err, EigenError::InvalidWideningFactor { .. }),
                "{bad}: {err:?}"
            );
            assert!(err.to_string().contains("[0, 1)"), "{err}");
        }
        // the boundary of validity still produces a positive spectrum
        let w = e.try_widened(0.999).unwrap();
        assert!(w.min > 0.0 && w.min.is_finite());
        assert!(w.max > w.min);
    }

    #[test]
    fn nan_factor_error_is_not_equal_to_itself_via_factor() {
        // PartialEq on the error carries the factor; NaN factors still
        // format into a readable message
        let e = EigenEstimate { min: 2.0, max: 4.0 };
        let msg = e.try_widened(f64::NAN).unwrap_err().to_string();
        assert!(msg.contains("NaN"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "widening factor")]
    fn widened_panics_with_structured_message() {
        let e = EigenEstimate { min: 1.0, max: 2.0 };
        let _ = e.widened(1.0);
    }
}
