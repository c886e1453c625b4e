//! Minimal dense tensor library and transformer kernels for the MoE-Lightning
//! reproduction.
//!
//! The functional offloading runtime (`moe-runtime`) executes real forward passes
//! of a tiny Mixture-of-Experts transformer to validate that CGOPipe's task graph,
//! weight paging and dependency tracking are actually executable. This crate provides
//! the numeric substrate: an owned row-major [`Tensor`], dense kernels
//! ([`ops::matmul`], [`ops::softmax_inplace`], [`ops::rms_norm`], [`ops::silu`],
//! [`ops::top_k`]) and grouped-query attention
//! ([`attention::gqa_attention_decode`], [`attention::causal_attention_prefill`]).
//!
//! Performance of these kernels is deliberately not a goal — the paper's performance
//! questions are answered by the analytical model and the discrete-event simulator —
//! so the implementations favour clarity and testability.
//!
//! # Examples
//!
//! ```
//! use moe_tensor::ops;
//! # fn main() -> Result<(), moe_tensor::TensorError> {
//! let router_logits = vec![0.1, 2.0, -0.3, 1.5];
//! let experts = ops::top_k(&router_logits, 2)?;
//! assert_eq!(experts[0].0, 1); // expert 1 has the highest score
//! assert_eq!(experts[1].0, 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attention;
pub mod error;
pub mod ops;
pub mod tensor;

pub use error::TensorError;
pub use tensor::Tensor;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn small_matrix(max_dim: usize) -> impl Strategy<Value = Tensor> {
        (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
            proptest::collection::vec(-4.0f32..4.0, r * c)
                .prop_map(move |data| Tensor::from_vec(&[r, c], data).expect("sized data"))
        })
    }

    proptest! {
        #[test]
        fn matmul_identity_right(m in small_matrix(6)) {
            let (_, cols) = m.as_2d().unwrap();
            let mut eye = Tensor::zeros(&[cols, cols]);
            for i in 0..cols {
                eye.row_mut(i).unwrap()[i] = 1.0;
            }
            let prod = ops::matmul(&m, &eye).unwrap();
            prop_assert!(prod.max_abs_diff(&m).unwrap() < 1e-5);
        }

        #[test]
        fn matmul_distributes_over_addition(
            a in small_matrix(5),
            seed in 0u64..1000,
        ) {
            let (rows, cols) = a.as_2d().unwrap();
            let b = Tensor::randn(&[rows, cols], 1.0, seed);
            let c = Tensor::randn(&[cols, 3], 1.0, seed + 1);
            let lhs = ops::matmul(&a.add(&b).unwrap(), &c).unwrap();
            let rhs = ops::matmul(&a, &c).unwrap().add(&ops::matmul(&b, &c).unwrap()).unwrap();
            prop_assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-3);
        }

        #[test]
        fn softmax_rows_are_probability_distributions(m in small_matrix(6)) {
            let (_, cols) = m.as_2d().unwrap();
            for row in m.data().chunks(cols) {
                let mut row = row.to_vec();
                ops::softmax_inplace(&mut row);
                prop_assert!(row.iter().all(|&x| (0.0..=1.0 + 1e-6).contains(&x)));
                prop_assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-4);
            }
        }

        #[test]
        fn softmax_is_shift_invariant(v in proptest::collection::vec(-10.0f32..10.0, 1..32), shift in -5.0f32..5.0) {
            let mut a = v.clone();
            let mut b: Vec<f32> = v.iter().map(|x| x + shift).collect();
            ops::softmax_inplace(&mut a);
            ops::softmax_inplace(&mut b);
            for (x, y) in a.iter().zip(&b) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        #[test]
        fn top_k_values_are_maximal(v in proptest::collection::vec(-10.0f32..10.0, 1..64), k in 1usize..8) {
            let k = k.min(v.len());
            let top = ops::top_k(&v, k).unwrap();
            prop_assert_eq!(top.len(), k);
            let min_selected = top.iter().map(|t| t.1).fold(f32::INFINITY, f32::min);
            let selected: std::collections::HashSet<usize> = top.iter().map(|t| t.0).collect();
            for (i, &x) in v.iter().enumerate() {
                if !selected.contains(&i) {
                    prop_assert!(x <= min_selected + 1e-6);
                }
            }
        }

        #[test]
        fn rms_norm_output_has_unit_rms(
            v in proptest::collection::vec(0.1f32..5.0, 4..32),
        ) {
            let n = v.len();
            let x = Tensor::from_vec(&[1, n], v).unwrap();
            let out = ops::rms_norm(&x, &vec![1.0; n], 1e-8).unwrap();
            let rms = (out.row(0).unwrap().iter().map(|a| a * a).sum::<f32>() / n as f32).sqrt();
            prop_assert!((rms - 1.0).abs() < 1e-2);
        }

        #[test]
        fn attention_rows_stay_within_value_range(
            seed in 0u64..500,
            ctx in 1usize..12,
            heads in 1usize..4,
        ) {
            let head_dim = 4;
            let q = Tensor::randn(&[heads * 2, head_dim], 1.0, seed);
            let k = Tensor::randn(&[heads, ctx, head_dim], 1.0, seed + 1);
            let v = Tensor::randn(&[heads, ctx, head_dim], 1.0, seed + 2);
            let out = attention::gqa_attention_decode(&q, &k, &v).unwrap();
            let vmin = v.data().iter().copied().fold(f32::INFINITY, f32::min);
            let vmax = v.data().iter().copied().fold(f32::NEG_INFINITY, f32::max);
            for &x in out.data() {
                prop_assert!(x >= vmin - 1e-4 && x <= vmax + 1e-4,
                    "convex combination must stay within value extremes");
            }
        }
    }
}
