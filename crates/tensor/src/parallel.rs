//! The tensor kernels' thread budget: none of their own.
//!
//! FL clients train concurrently on the persistent `RoundExecutor` worker
//! pool in `fedca-core`, sized to min(cohort, cores). That pool (one per
//! process) is the workspace's only source of compute parallelism, so every
//! kernel in this crate runs on the calling thread. Spawning threads inside
//! a GEMM as well would oversubscribe the cores the pool already fills and
//! pay a spawn per call in the training hot loop.

/// How many threads a matmul-shaped kernel with `flops` multiply-adds uses:
/// always `1`, because kernels run on the calling thread and the worker
/// pool above them supplies the parallelism. Kept public so benchmarks can
/// report the kernel thread budget next to their GFLOP/s.
#[inline]
pub fn matmul_thread_count(_flops: usize) -> usize {
    1
}
