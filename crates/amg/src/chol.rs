//! Dense Cholesky factorisation for the multigrid coarsest-level solve.
//!
//! BoomerAMG solves its coarsest grid directly; we do the same. The
//! coarsest level of the hierarchy is at most a few hundred unknowns, so
//! a dense `LLᵀ` factorisation built once at setup and reused every
//! V-cycle is both faithful and fast.

/// A dense symmetric positive definite matrix factorised as `L·Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    n: usize,
    /// Lower-triangular factor, row-major, full storage.
    l: Vec<f64>,
}

impl Cholesky {
    /// Factorises the dense SPD matrix `a` (row-major `n x n`); `None`
    /// when it is not numerically positive definite (a zero, negative or
    /// non-finite pivot appears).
    ///
    /// # Panics
    /// Panics if `a` has the wrong length.
    pub fn factor(a: &[f64], n: usize) -> Option<Self> {
        assert_eq!(a.len(), n * n, "matrix must be n*n");
        let mut l = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut s = a[i * n + j];
                for k in 0..j {
                    s -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if !(s > 0.0 && s.is_finite()) {
                        return None;
                    }
                    l[i * n + i] = s.sqrt();
                } else {
                    l[i * n + j] = s / l[j * n + j];
                }
            }
        }
        Some(Cholesky { n, l })
    }

    /// Unknown count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Solves `A x = b` in place (`b` becomes `x`).
    pub fn solve_in_place(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.n);
        let n = self.n;
        let l = &self.l;
        // forward: L y = b
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s -= l[i * n + k] * b[k];
            }
            b[i] = s / l[i * n + i];
        }
        // backward: L^T x = y
        for i in (0..n).rev() {
            let mut s = b[i];
            for k in i + 1..n {
                s -= l[k * n + i] * b[k];
            }
            b[i] = s / l[i * n + i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matvec(a: &[f64], x: &[f64], n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (0..n).map(|j| a[i * n + j] * x[j]).sum())
            .collect()
    }

    #[test]
    fn factor_and_solve_small_spd() {
        // A = [[4,1,0],[1,3,1],[0,1,2]]
        let a = vec![4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0];
        let c = Cholesky::factor(&a, 3).unwrap();
        assert_eq!(c.n(), 3);
        let x_true = vec![1.0, -2.0, 3.0];
        let mut b = matvec(&a, &x_true, 3);
        c.solve_in_place(&mut b);
        for (got, want) in b.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn identity_is_its_own_inverse() {
        let n = 5;
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            a[i * n + i] = 1.0;
        }
        let c = Cholesky::factor(&a, n).unwrap();
        let mut b = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        c.solve_in_place(&mut b);
        assert_eq!(b, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn random_spd_roundtrip() {
        // A = B^T B + n*I is SPD for any B
        let n = 20;
        let mut b_mat = vec![0.0; n * n];
        let mut state = 12345u64;
        let mut rng = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for v in b_mat.iter_mut() {
            *v = rng();
        }
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut s = if i == j { n as f64 } else { 0.0 };
                for k in 0..n {
                    s += b_mat[k * n + i] * b_mat[k * n + j];
                }
                a[i * n + j] = s;
            }
        }
        let c = Cholesky::factor(&a, n).unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 10.0).collect();
        let mut rhs = matvec(&a, &x_true, n);
        c.solve_in_place(&mut rhs);
        for (got, want) in rhs.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let a = vec![1.0, 2.0, 2.0, 1.0]; // eigenvalues 3, -1
        assert!(Cholesky::factor(&a, 2).is_none());
        // singular: the second pivot is exactly 0
        assert!(Cholesky::factor(&[1.0, -1.0, -1.0, 1.0], 2).is_none());
        // an overflowed entry is no pivot either
        assert!(Cholesky::factor(&[f64::INFINITY, 0.0, 0.0, 1.0], 2).is_none());
        assert!(Cholesky::factor(&[f64::NAN], 1).is_none());
    }
}
