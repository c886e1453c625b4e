//! A minimal dense, row-major, `f32` tensor.
//!
//! The reproduction does not need a full deep-learning framework: the functional
//! offloading runtime only has to execute small MoE layers correctly so that the
//! CGOPipe task graph, paging and dependency logic can be validated end-to-end on
//! real data. A simple owned `Vec<f32>` container with shape metadata is enough and
//! keeps the workspace free of heavyweight dependencies.

use crate::error::TensorError;
use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// A dense, row-major tensor of `f32` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of the given shape filled with zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// use moe_tensor::Tensor;
    /// let t = Tensor::zeros(&[2, 3]);
    /// assert_eq!(t.len(), 6);
    /// assert_eq!(t.shape(), &[2, 3]);
    /// ```
    pub fn zeros(shape: &[usize]) -> Tensor {
        let len = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor of the given shape filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Tensor {
        let len = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; len],
        }
    }

    /// Creates a tensor from an existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the buffer length does not equal the
    /// product of the shape dimensions.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Result<Tensor, TensorError> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(TensorError::ShapeMismatch {
                expected: shape.to_vec(),
                got: vec![data.len()],
                context: "Tensor::from_vec",
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Creates a tensor with values drawn from a normal distribution `N(0, std²)`,
    /// deterministically seeded.
    pub fn randn(shape: &[usize], std: f32, seed: u64) -> Tensor {
        let len: usize = shape.iter().product();
        let mut rng = StdRng::seed_from_u64(seed);
        // Box–Muller free: rand's StandardNormal lives in rand_distr which is not an
        // allowed dependency, so sample a uniform-sum approximation (Irwin–Hall with
        // 12 terms has unit variance and is plenty for weight initialization).
        let uniform = rand::distributions::Uniform::new(0.0f32, 1.0f32);
        let data = (0..len)
            .map(|_| {
                let s: f32 = (0..12).map(|_| uniform.sample(&mut rng)).sum();
                (s - 6.0) * std
            })
            .collect();
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Size of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range.
    pub fn dim(&self, dim: usize) -> usize {
        self.shape[dim]
    }

    /// Returns the number of rows and columns of a 2-D tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the tensor is not 2-D.
    pub fn as_2d(&self) -> Result<(usize, usize), TensorError> {
        if self.shape.len() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                got: self.shape.len(),
            });
        }
        Ok((self.shape[0], self.shape[1]))
    }

    /// Returns a view of row `row` of a 2-D tensor.
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor is not 2-D or the row index is out of bounds.
    pub fn row(&self, row: usize) -> Result<&[f32], TensorError> {
        let (rows, cols) = self.as_2d()?;
        if row >= rows {
            return Err(TensorError::IndexOutOfBounds {
                index: row,
                len: rows,
            });
        }
        Ok(&self.data[row * cols..(row + 1) * cols])
    }

    /// Returns a mutable view of row `row` of a 2-D tensor.
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor is not 2-D or the row index is out of bounds.
    pub fn row_mut(&mut self, row: usize) -> Result<&mut [f32], TensorError> {
        let (rows, cols) = self.as_2d()?;
        if row >= rows {
            return Err(TensorError::IndexOutOfBounds {
                index: row,
                len: rows,
            });
        }
        Ok(&mut self.data[row * cols..(row + 1) * cols])
    }

    /// Reinterprets the tensor with a new shape of identical element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor, TensorError> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(TensorError::ShapeMismatch {
                expected: shape.to_vec(),
                got: self.shape.clone(),
                context: "Tensor::reshape",
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        })
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, "Tensor::add", |a, b| a + b)
    }

    /// Element-wise multiplication (Hadamard product).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, "Tensor::mul", |a, b| a * b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, factor: f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|x| x * factor).collect(),
        }
    }

    /// Applies a function element-wise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().copied().map(f).collect(),
        }
    }

    /// Maximum absolute difference between two tensors of the same shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape.clone(),
                got: other.shape.clone(),
                context: "Tensor::max_abs_diff",
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max))
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    fn zip_with(
        &self,
        other: &Tensor,
        context: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape.clone(),
                got: other.shape.clone(),
                context,
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| f(*a, *b))
            .collect();
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?} ({} elements)", self.shape, self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full_have_expected_contents() {
        let z = Tensor::zeros(&[2, 2]);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let f = Tensor::full(&[3], 2.5);
        assert!(f.data().iter().all(|&x| x == 2.5));
        assert_eq!(f.shape(), &[3]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 4]).is_ok());
        let err = Tensor::from_vec(&[2, 2], vec![1.0; 5]).unwrap_err();
        assert!(err.to_string().contains("shape"));
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let a = Tensor::randn(&[16], 0.5, 7);
        let b = Tensor::randn(&[16], 0.5, 7);
        let c = Tensor::randn(&[16], 0.5, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn randn_has_roughly_zero_mean() {
        let t = Tensor::randn(&[10_000], 1.0, 42);
        let mean = t.sum() / t.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean} too far from zero");
    }

    #[test]
    fn row_access_and_mutation() {
        let mut t = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(t.row(1).unwrap(), &[4.0, 5.0, 6.0]);
        t.row_mut(0).unwrap()[2] = 9.0;
        assert_eq!(t.row(0).unwrap(), &[1.0, 2.0, 9.0]);
        assert!(t.row(2).is_err());
        assert!(
            Tensor::zeros(&[3]).row(0).is_err(),
            "row access requires 2-D"
        );
    }

    #[test]
    fn reshape_preserves_data_and_validates_count() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|x| x as f32).collect()).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn elementwise_ops_respect_shapes() {
        let a = Tensor::from_vec(&[2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(&[2], vec![3.0, 4.0]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 6.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[3.0, 8.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
        assert!(a.add(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn max_abs_diff_detects_differences() {
        let a = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec(&[3], vec![1.0, 2.5, 3.0]).unwrap();
        assert!((a.max_abs_diff(&b).unwrap() - 0.5).abs() < 1e-6);
        assert_eq!(a.max_abs_diff(&a).unwrap(), 0.0);
    }

    #[test]
    fn map_applies_function() {
        let a = Tensor::from_vec(&[2], vec![1.0, -2.0]).unwrap();
        assert_eq!(a.map(f32::abs).data(), &[1.0, 2.0]);
    }
}
