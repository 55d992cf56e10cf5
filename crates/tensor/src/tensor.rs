//! The core [`Tensor`] type: a contiguous, row-major `f32` n-d array.

use std::fmt;

/// Error returned by fallible tensor constructors and reshapes.
///
/// The infallible counterparts (e.g. [`Tensor::from_vec`]) panic with the
/// same message instead; see each method's `# Panics` section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    msg: String,
}

impl ShapeError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shape mismatch: {}", self.msg)
    }
}

impl std::error::Error for ShapeError {}

/// Maximum rank stored without a heap allocation; everything in this
/// workspace is rank ≤ 4 (`[N, C, H, W]`), so the `Heap` fallback is for
/// generality only.
const INLINE_DIMS: usize = 4;

/// Shape storage for [`Tensor`]: inline for rank ≤ [`INLINE_DIMS`].
///
/// Keeping the common shapes inline makes wrapping a recycled `Vec<f32>` in
/// a `Tensor` (the `Workspace::take_dirty` → `Tensor::from_vec` pattern on
/// every hot path) completely allocation-free.
#[derive(Clone)]
enum Dims {
    Inline { len: u8, d: [usize; INLINE_DIMS] },
    Heap(Vec<usize>),
}

impl Dims {
    #[inline]
    fn from_slice(s: &[usize]) -> Self {
        if s.len() <= INLINE_DIMS {
            let mut d = [0usize; INLINE_DIMS];
            d[..s.len()].copy_from_slice(s);
            Dims::Inline {
                len: s.len() as u8,
                d,
            }
        } else {
            Dims::Heap(s.to_vec())
        }
    }

    #[inline]
    fn as_slice(&self) -> &[usize] {
        match self {
            Dims::Inline { len, d } => &d[..*len as usize],
            Dims::Heap(v) => v,
        }
    }
}

/// A contiguous, row-major, `f32` n-dimensional array.
///
/// `Tensor` is the single numeric currency of the whole workspace: images are
/// `[N, C, H, W]`, convolution weights `[OC, IC, KH, KW]`, logits `[N, K]`,
/// masks `[H, W]`, and so on. All arithmetic is eager and allocates the
/// result; in-place `_assign` variants exist for the hot paths used by the
/// optimizers.
///
/// # Example
///
/// ```rust
/// use usb_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Clone)]
pub struct Tensor {
    shape: Dims,
    data: Vec<f32>,
}

impl PartialEq for Tensor {
    /// Value equality: same shape and equal elements.
    fn eq(&self, other: &Self) -> bool {
        self.shape() == other.shape() && self.data == other.data
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let preview: Vec<f32> = self.data.iter().take(8).copied().collect();
        write!(
            f,
            "Tensor(shape={:?}, len={}, data[..{}]={:?}{})",
            self.shape(),
            self.data.len(),
            preview.len(),
            preview,
            if self.data.len() > 8 { ", ..." } else { "" }
        )
    }
}

impl Default for Tensor {
    /// An empty rank-1 tensor with zero elements.
    fn default() -> Self {
        Tensor {
            shape: Dims::from_slice(&[0]),
            data: Vec::new(),
        }
    }
}

fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor of `shape` filled with zeros.
    ///
    /// ```rust
    /// # use usb_tensor::Tensor;
    /// let t = Tensor::zeros(&[4]);
    /// assert_eq!(t.data(), &[0.0; 4]);
    /// ```
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a tensor of `shape` filled with ones.
    ///
    /// ```rust
    /// # use usb_tensor::Tensor;
    /// assert_eq!(Tensor::ones(&[2]).sum(), 2.0);
    /// ```
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor of `shape` with every element set to `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor {
            shape: Dims::from_slice(shape),
            data: vec![value; numel(shape)],
        }
    }

    /// Wraps an existing buffer in a tensor of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    ///
    /// ```rust
    /// # use usb_tensor::Tensor;
    /// let t = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]);
    /// assert_eq!(t.at(&[1, 0]), 2.0);
    /// ```
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        Self::try_from_vec(data, shape).expect("Tensor::from_vec")
    }

    /// Fallible version of [`Tensor::from_vec`].
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `data.len()` does not equal the product of
    /// `shape`.
    pub fn try_from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, ShapeError> {
        if data.len() != numel(shape) {
            return Err(ShapeError::new(format!(
                "buffer of {} elements cannot have shape {:?} ({} elements)",
                data.len(),
                shape,
                numel(shape)
            )));
        }
        Ok(Tensor {
            shape: Dims::from_slice(shape),
            data,
        })
    }

    /// Builds a tensor by calling `f(flat_index)` for every element.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let n = numel(shape);
        let mut data = Vec::with_capacity(n);
        for i in 0..n {
            data.push(f(i));
        }
        Tensor {
            shape: Dims::from_slice(shape),
            data,
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The dimensions of the tensor.
    pub fn shape(&self) -> &[usize] {
        self.shape.as_slice()
    }

    /// Number of dimensions (rank).
    pub fn ndim(&self) -> usize {
        self.shape().len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds zero elements.
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

    /// Row-major flat offset of a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if `index.len() != self.ndim()` or any coordinate is out of
    /// bounds.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.ndim(),
            "index rank {} != tensor rank {}",
            index.len(),
            self.ndim()
        );
        let mut off = 0;
        for (d, (&i, &s)) in index.iter().zip(self.shape()).enumerate() {
            assert!(i < s, "index {i} out of bounds for dim {d} of size {s}");
            off = off * s + i;
        }
        off
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics on rank mismatch or out-of-bounds coordinates.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.offset(index)]
    }

    /// Mutable element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics on rank mismatch or out-of-bounds coordinates.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.offset(index);
        &mut self.data[off]
    }

    // ------------------------------------------------------------------
    // Shape algebra
    // ------------------------------------------------------------------

    /// Returns a tensor with the same buffer and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        self.try_reshape(shape).expect("Tensor::reshape")
    }

    /// Fallible version of [`Tensor::reshape`].
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the element counts differ.
    pub fn try_reshape(&self, shape: &[usize]) -> Result<Tensor, ShapeError> {
        if numel(shape) != self.data.len() {
            return Err(ShapeError::new(format!(
                "cannot reshape {:?} ({} elements) to {:?} ({} elements)",
                self.shape(),
                self.data.len(),
                shape,
                numel(shape)
            )));
        }
        Ok(Tensor {
            shape: Dims::from_slice(shape),
            data: self.data.clone(),
        })
    }

    /// Extracts the `i`-th slice along the first axis (e.g. one image from a
    /// batch). The result has the remaining dimensions.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is rank-0 or `i` is out of bounds.
    pub fn index_axis0(&self, i: usize) -> Tensor {
        assert!(self.ndim() >= 1, "index_axis0 on rank-0 tensor");
        let n = self.shape()[0];
        assert!(i < n, "index {i} out of bounds for axis 0 of size {n}");
        let inner: usize = self.shape()[1..].iter().product();
        let data = self.data[i * inner..(i + 1) * inner].to_vec();
        Tensor {
            shape: Dims::from_slice(&self.shape()[1..]),
            data,
        }
    }

    /// Writes `src` into the `i`-th slice along the first axis.
    ///
    /// # Panics
    ///
    /// Panics if shapes are incompatible or `i` is out of bounds.
    pub fn set_axis0(&mut self, i: usize, src: &Tensor) {
        let n = self.shape()[0];
        assert!(i < n, "index {i} out of bounds for axis 0 of size {n}");
        let inner: usize = self.shape()[1..].iter().product();
        assert_eq!(src.len(), inner, "slice length mismatch in set_axis0");
        self.data[i * inner..(i + 1) * inner].copy_from_slice(&src.data);
    }

    /// Stacks rank-`r` tensors of identical shape into one rank-`r+1` tensor
    /// along a new leading axis.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or the shapes differ.
    pub fn stack(items: &[Tensor]) -> Tensor {
        assert!(!items.is_empty(), "Tensor::stack of zero tensors");
        let inner_shape = items[0].shape().to_vec();
        let mut data = Vec::with_capacity(items.len() * items[0].len());
        for t in items {
            assert_eq!(t.shape(), &inner_shape[..], "Tensor::stack shape mismatch");
            data.extend_from_slice(&t.data);
        }
        let mut shape = vec![items.len()];
        shape.extend_from_slice(&inner_shape);
        Tensor {
            shape: Dims::from_slice(&shape),
            data,
        }
    }

    // ------------------------------------------------------------------
    // Elementwise arithmetic (allocating)
    // ------------------------------------------------------------------

    fn assert_same_shape(&self, other: &Tensor, op: &str) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "{op}: shape {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
    }

    /// Elementwise sum. Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other, "add");
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference. Panics on shape mismatch.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other, "sub");
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise product (Hadamard). Panics on shape mismatch.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other, "mul");
        self.zip_map(other, |a, b| a * b)
    }

    /// Elementwise quotient. Panics on shape mismatch.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other, "div");
        self.zip_map(other, |a, b| a / b)
    }

    /// Adds `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|a| a + s)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|a| a * s)
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        self.map(|a| -a)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }

    /// Clamps every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|a| a.clamp(lo, hi))
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&a| f(a)).collect(),
        }
    }

    /// Applies `f` pairwise, producing a new tensor.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        self.assert_same_shape(other, "zip_map");
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    // ------------------------------------------------------------------
    // Elementwise arithmetic (in place, used by optimizers)
    // ------------------------------------------------------------------

    /// `self += other`. Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        self.assert_same_shape(other, "add_assign");
        if crate::kernels::try_add_assign(&mut self.data, &other.data) {
            return;
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self -= other`. Panics on shape mismatch.
    pub fn sub_assign(&mut self, other: &Tensor) {
        self.assert_same_shape(other, "sub_assign");
        if crate::kernels::try_sub_assign(&mut self.data, &other.data) {
            return;
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a -= b;
        }
    }

    /// `self += s * other` (axpy). Panics on shape mismatch.
    pub fn axpy(&mut self, s: f32, other: &Tensor) {
        self.assert_same_shape(other, "axpy");
        if crate::kernels::try_axpy(&mut self.data, s, &other.data) {
            return;
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
    }

    /// `self *= s` in place.
    pub fn scale_assign(&mut self, s: f32) {
        if crate::kernels::try_scale(&mut self.data, s) {
            return;
        }
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Sets every element to zero (keeps the allocation).
    pub fn fill(&mut self, value: f32) {
        for a in &mut self.data {
            *a = value;
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_assign(&mut self, f: impl Fn(f32) -> f32) {
        for a in &mut self.data {
            *a = f(*a);
        }
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for the empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element. Returns `f32::NEG_INFINITY` for empty tensors.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element. Returns `f32::INFINITY` for empty tensors.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Sum of absolute values (the L1 norm of the flattened tensor).
    pub fn l1_norm(&self) -> f32 {
        self.data.iter().map(|a| a.abs()).sum()
    }

    /// Euclidean norm of the flattened tensor.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|a| a * a).sum::<f32>().sqrt()
    }

    /// Maximum absolute value (the L∞ norm).
    pub fn linf_norm(&self) -> f32 {
        self.data.iter().map(|a| a.abs()).fold(0.0, f32::max)
    }

    /// Dot product of the flattened tensors.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.len(), other.len(), "dot: length mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Flat index of the maximum element (first on ties).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// `true` when every element is finite (no NaN / ±inf).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|a| a.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros(&[2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones(&[3]).sum(), 3.0);
        assert_eq!(Tensor::full(&[2], 2.5).data(), &[2.5, 2.5]);
    }

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.at(&[0, 0]), 1.0);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.offset(&[1, 0]), 3);
    }

    #[test]
    fn try_from_vec_rejects_bad_shape() {
        assert!(Tensor::try_from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(Tensor::try_from_vec(vec![1.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    #[should_panic(expected = "Tensor::from_vec")]
    fn from_vec_panics_on_mismatch() {
        let _ = Tensor::from_vec(vec![0.0; 3], &[2, 2]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        let r = t.reshape(&[3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
        assert!(t.try_reshape(&[4, 2]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, -2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        assert_eq!(a.add(&b).data(), &[4.0, 2.0]);
        assert_eq!(a.sub(&b).data(), &[-2.0, -6.0]);
        assert_eq!(a.mul(&b).data(), &[3.0, -8.0]);
        assert_eq!(b.div(&a).data(), &[3.0, -2.0]);
        assert_eq!(a.abs().data(), &[1.0, 2.0]);
        assert_eq!(a.neg().data(), &[-1.0, 2.0]);
        assert_eq!(a.clamp(-1.0, 0.5).data(), &[0.5, -1.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[2.0, -1.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, -4.0]);
    }

    #[test]
    fn in_place_ops() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        a.add_assign(&b);
        assert_eq!(a.data(), &[11.0, 22.0]);
        a.sub_assign(&b);
        assert_eq!(a.data(), &[1.0, 2.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[6.0, 12.0]);
        a.scale_assign(0.5);
        assert_eq!(a.data(), &[3.0, 6.0]);
        a.fill(0.0);
        assert_eq!(a.data(), &[0.0, 0.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -3.0, 2.0], &[3]);
        assert_eq!(t.sum(), 0.0);
        assert!((t.mean()).abs() < 1e-7);
        assert_eq!(t.max(), 2.0);
        assert_eq!(t.min(), -3.0);
        assert_eq!(t.l1_norm(), 6.0);
        assert!((t.l2_norm() - 14.0_f32.sqrt()).abs() < 1e-6);
        assert_eq!(t.linf_norm(), 3.0);
        assert_eq!(t.argmax(), 2);
    }

    #[test]
    fn dot_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.dot(&b), 32.0);
    }

    #[test]
    fn axis0_slicing() {
        let t = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[3, 2, 2]);
        let s = t.index_axis0(1);
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.data(), &[4.0, 5.0, 6.0, 7.0]);
        let mut t2 = t.clone();
        t2.set_axis0(0, &Tensor::full(&[2, 2], 9.0));
        assert_eq!(t2.at(&[0, 1, 1]), 9.0);
        assert_eq!(t2.at(&[1, 0, 0]), 4.0);
    }

    #[test]
    fn stack_builds_batch() {
        let a = Tensor::full(&[2, 2], 1.0);
        let b = Tensor::full(&[2, 2], 2.0);
        let s = Tensor::stack(&[a, b]);
        assert_eq!(s.shape(), &[2, 2, 2]);
        assert_eq!(s.index_axis0(1).data(), &[2.0; 4]);
    }

    #[test]
    fn finite_detection() {
        let mut t = Tensor::ones(&[2]);
        assert!(t.all_finite());
        t.data_mut()[0] = f32::NAN;
        assert!(!t.all_finite());
    }

    #[test]
    fn shapes_above_inline_rank_still_work() {
        let t = Tensor::zeros(&[2, 1, 3, 1, 2]);
        assert_eq!(t.shape(), &[2, 1, 3, 1, 2]);
        assert_eq!(t.len(), 12);
        assert_eq!(t.index_axis0(1).shape(), &[1, 3, 1, 2]);
        assert_eq!(t.offset(&[1, 0, 2, 0, 1]), 11);
    }

    #[test]
    fn map_and_zip_map() {
        let a = Tensor::from_vec(vec![1.0, 4.0], &[2]);
        assert_eq!(a.map(|x| x * x).data(), &[1.0, 16.0]);
        let b = Tensor::from_vec(vec![2.0, 2.0], &[2]);
        assert_eq!(a.zip_map(&b, f32::max).data(), &[2.0, 4.0]);
    }
}
