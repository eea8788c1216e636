//! # fedca-tensor
//!
//! Dense `f32` tensor substrate for the FedCA reproduction.
//!
//! The FedCA paper ([Lyu et al., ICPP '24]) implements its mechanism atop
//! PyTorch; this crate is the from-scratch replacement for the slice of
//! PyTorch the paper actually uses: dense row-major `f32` tensors, the
//! linear-algebra kernels needed for forward/backward passes (packed,
//! cache-blocked matrix multiplication, elementwise maps, reductions), and
//! the vector geometry (dot products, norms, cosine similarity) at the heart
//! of the paper's *statistical progress* metric (Eq. 1).
//!
//! Design notes, following the HPC-Rust guidance this repo was built under:
//!
//! * Hot kernels take slices, not `Vec`s, and write into caller-provided
//!   buffers where it matters (`matmul_into`, `Tensor::add_assign`) so inner
//!   loops allocate nothing.
//! * Kernels run on the calling thread and never spawn: the per-process
//!   `RoundExecutor` pool in `fedca-core` is the only compute parallelism
//!   (see [`parallel`]), so the clients it trains concurrently never
//!   oversubscribe the cores.
//! * Everything is deterministic given a seed: random init goes through
//!   caller-supplied [`rand::Rng`] state, never a thread-local generator.
//!
//! [Lyu et al., ICPP '24]: https://doi.org/10.1145/3673038.3673049

pub mod dataplane;
pub mod gemm;
pub mod linalg;
pub mod ops;
pub mod parallel;
pub mod shape;
pub mod simd;
pub mod tensor;

pub use linalg::{axpy, cosine_similarity, dot, l2_norm, magnitude_similarity};
pub use ops::{matmul, matmul_into, matmul_transpose_a, matmul_transpose_b};
pub use shape::Shape;
pub use tensor::Tensor;
