//! Dense kernels used by the reference MoE transformer layer.
//!
//! These are straightforward, cache-friendly loops — performance of the *numeric*
//! path is irrelevant to the reproduction (cost enters through the analytical model);
//! correctness is what matters, so every kernel has direct unit tests plus property
//! tests in the crate root.

use crate::error::TensorError;
use crate::tensor::Tensor;

/// Matrix multiplication `A[m,k] × B[k,n] → C[m,n]`.
///
/// # Errors
///
/// Returns [`TensorError`] if either input is not 2-D or the inner dimensions differ.
///
/// # Examples
///
/// ```
/// use moe_tensor::{ops, Tensor};
/// # fn main() -> Result<(), moe_tensor::TensorError> {
/// let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
/// let b = Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 1.0])?;
/// assert_eq!(ops::matmul(&a, &b)?.data(), a.data());
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (m, k) = a.as_2d()?;
    let (k2, n) = b.as_2d()?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            expected: vec![m, k],
            got: vec![k2, n],
            context: "ops::matmul inner dimension",
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    let a_data = a.data();
    let b_data = b.data();
    let out_data = out.data_mut();
    for i in 0..m {
        for p in 0..k {
            let a_ip = a_data[i * k + p];
            if a_ip == 0.0 {
                continue;
            }
            let b_row = &b_data[p * n..(p + 1) * n];
            let out_row = &mut out_data[i * n..(i + 1) * n];
            for j in 0..n {
                out_row[j] += a_ip * b_row[j];
            }
        }
    }
    Ok(out)
}

/// Matrix–vector product `A[m,k] × x[k] → y[m]`.
///
/// # Errors
///
/// Returns [`TensorError`] if `a` is not 2-D or dimensions disagree.
pub fn matvec(a: &Tensor, x: &[f32]) -> Result<Vec<f32>, TensorError> {
    let (m, k) = a.as_2d()?;
    if x.len() != k {
        return Err(TensorError::ShapeMismatch {
            expected: vec![k],
            got: vec![x.len()],
            context: "ops::matvec",
        });
    }
    let data = a.data();
    let mut y = vec![0.0f32; m];
    for i in 0..m {
        let row = &data[i * k..(i + 1) * k];
        y[i] = row.iter().zip(x).map(|(w, v)| w * v).sum();
    }
    Ok(y)
}

/// Numerically stable softmax over a slice, in place.
pub fn softmax_inplace(x: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in x.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in x.iter_mut() {
            *v /= sum;
        }
    }
}

/// RMSNorm: `x / sqrt(mean(x²) + eps) * gain`, applied per row.
///
/// Mixtral and DBRX use RMS normalization before attention and FFN blocks.
///
/// # Errors
///
/// Returns [`TensorError`] if `x` is not 2-D or the gain length differs from the row
/// width.
pub fn rms_norm(x: &Tensor, gain: &[f32], eps: f32) -> Result<Tensor, TensorError> {
    let (rows, cols) = x.as_2d()?;
    if gain.len() != cols {
        return Err(TensorError::ShapeMismatch {
            expected: vec![cols],
            got: vec![gain.len()],
            context: "ops::rms_norm gain",
        });
    }
    let mut out = x.clone();
    for r in 0..rows {
        let row = out.row_mut(r)?;
        let ms: f32 = row.iter().map(|v| v * v).sum::<f32>() / cols as f32;
        let inv = 1.0 / (ms + eps).sqrt();
        for (v, g) in row.iter_mut().zip(gain) {
            *v = *v * inv * g;
        }
    }
    Ok(out)
}

/// SiLU (swish) activation `x * sigmoid(x)`, the activation of Mixtral's experts.
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// Returns the indices and values of the `k` largest entries of `scores`, sorted by
/// decreasing value (ties broken by lower index, matching common framework behaviour).
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] if `k` is zero or exceeds the length of
/// `scores`.
pub fn top_k(scores: &[f32], k: usize) -> Result<Vec<(usize, f32)>, TensorError> {
    if k == 0 {
        return Err(TensorError::InvalidArgument {
            message: "top_k requires k >= 1".to_owned(),
        });
    }
    if k > scores.len() {
        return Err(TensorError::InvalidArgument {
            message: format!("top_k requires k <= len, got k={k}, len={}", scores.len()),
        });
    }
    let mut indexed: Vec<(usize, f32)> = scores.iter().copied().enumerate().collect();
    indexed.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    indexed.truncate(k);
    Ok(indexed)
}

/// Dot product of two equal-length slices.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the lengths differ.
pub fn dot(a: &[f32], b: &[f32]) -> Result<f32, TensorError> {
    if a.len() != b.len() {
        return Err(TensorError::ShapeMismatch {
            expected: vec![a.len()],
            got: vec![b.len()],
            context: "ops::dot",
        });
    }
    Ok(a.iter().zip(b).map(|(x, y)| x * y).sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: &[usize], data: Vec<f32>) -> Tensor {
        Tensor::from_vec(shape, data).expect("valid tensor literal")
    }

    #[test]
    fn matmul_matches_hand_computed_result() {
        let a = t(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(&[3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = t(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let eye = t(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(matmul(&a, &eye).unwrap(), a);
        assert_eq!(matmul(&eye, &a).unwrap(), a);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = t(&[2, 3], vec![0.0; 6]);
        let b = t(&[2, 2], vec![0.0; 4]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul(&a, &Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn matvec_matches_matmul_column() {
        let a = t(&[3, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = matvec(&a, &[1.0, -1.0]).unwrap();
        assert_eq!(y, vec![-1.0, -1.0, -1.0]);
        assert!(matvec(&a, &[1.0]).is_err());
    }

    #[test]
    fn softmax_sums_to_one_and_preserves_order() {
        let mut row = vec![1.0, 2.0, 3.0, 4.0];
        softmax_inplace(&mut row);
        assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(row[3] > row[2] && row[2] > row[1] && row[1] > row[0]);
    }

    #[test]
    fn softmax_is_stable_for_large_inputs() {
        let mut x = vec![1000.0, 1001.0, 999.0];
        softmax_inplace(&mut x);
        assert!(x.iter().all(|v| v.is_finite()));
        assert!((x.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_empty_slice_is_noop() {
        let mut x: Vec<f32> = vec![];
        softmax_inplace(&mut x);
        assert!(x.is_empty());
    }

    #[test]
    fn rms_norm_produces_unit_rms_with_unit_gain() {
        let x = t(&[1, 4], vec![2.0, -2.0, 2.0, -2.0]);
        let out = rms_norm(&x, &[1.0; 4], 1e-6).unwrap();
        let rms: f32 = (out.row(0).unwrap().iter().map(|v| v * v).sum::<f32>() / 4.0).sqrt();
        assert!((rms - 1.0).abs() < 1e-3);
    }

    #[test]
    fn rms_norm_validates_gain_length() {
        let x = t(&[1, 4], vec![1.0; 4]);
        assert!(rms_norm(&x, &[1.0; 3], 1e-6).is_err());
    }

    #[test]
    fn silu_has_expected_fixed_points() {
        assert_eq!(silu(0.0), 0.0);
        assert!(silu(10.0) > 9.99);
        assert!(silu(-10.0).abs() < 1e-3);
    }

    #[test]
    fn top_k_returns_sorted_largest_entries() {
        let scores = [0.1, 0.9, 0.5, 0.9, 0.2];
        let top = top_k(&scores, 2).unwrap();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, 1, "ties broken by lower index");
        assert_eq!(top[1].0, 3);
    }

    #[test]
    fn top_k_validates_k() {
        assert!(top_k(&[1.0, 2.0], 0).is_err());
        assert!(top_k(&[1.0, 2.0], 3).is_err());
        assert_eq!(top_k(&[1.0, 2.0], 2).unwrap().len(), 2);
    }

    #[test]
    fn dot_product_matches_manual() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]).unwrap(), 32.0);
        assert!(dot(&[1.0], &[1.0, 2.0]).is_err());
    }
}
