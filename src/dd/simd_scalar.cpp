#include "dd/simd_kernels.hpp"

namespace cfpm::dd::simd {

// Reference sweep: one uint64 per step, W mask words per node. Also the
// correctness baseline the simd-dispatch oracle compares the wide kernels
// against, so keep it the plainest form of the sweep. Children always sit
// at higher indices, so row i is final when the sweep arrives at i. Every
// node is updated unconditionally (no skip of unreached rows): reach masks
// are unpredictable, and data-dependent skips would mispredict far more
// than the saved ORs are worth. First-edge stores (keep mask 0)
// reinitialize every child, so stale masks from the previous batch never
// survive and scratch is never cleared.
//
// No local mask copy is needed (unlike eval_packed_wide's fixed-W loop):
// the node array is level-sorted, so a node's children sit at strictly
// higher indices and the hi/lo stores can never touch row i, and canonical
// make_node guarantees hi != lo for internal nodes, so the two child rows
// are distinct as well.
void sweep_scalar(const SweepCtx& ctx, const std::uint64_t* bits,
                  std::size_t bits_stride, const std::uint64_t* all,
                  double* out, std::uint64_t* reach, std::size_t W) {
  for (std::size_t w = 0; w < W; ++w) reach[W * ctx.root + w] = all[w];
  const CompiledDd::Node* const nodes = ctx.nodes;
  for (std::uint32_t i = 0; i < ctx.first_terminal; ++i) {
    const CompiledDd::Node& n = nodes[i];
    const std::uint64_t keep_hi = static_cast<std::uint64_t>(n.hi >> 31) - 1;
    const std::uint64_t keep_lo = static_cast<std::uint64_t>(n.lo >> 31) - 1;
    const std::uint64_t* const m = reach + W * i;
    std::uint64_t* const hi = reach + W * (n.hi & CompiledDd::kIndexMask);
    std::uint64_t* const lo = reach + W * (n.lo & CompiledDd::kIndexMask);
    const std::uint64_t* const bv = bits + bits_stride * n.var;
    for (std::size_t w = 0; w < W; ++w) {
      const std::uint64_t mw = m[w];
      const std::uint64_t bw = bv[w];
      hi[w] = (hi[w] & keep_hi) | (mw & bw);
      lo[w] = (lo[w] & keep_lo) | (mw & ~bw);
    }
  }
  gather_terminals(ctx, reach, out, W);
}

}  // namespace cfpm::dd::simd
