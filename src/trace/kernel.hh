/**
 * @file
 * Kernel and application descriptions.
 *
 * A kernel is a grid of identical thread blocks.  Each warp slot in
 * the block executes one of a small set of *shapes* (instruction
 * streams); the shapeOfWarp table maps warp-in-block -> shape.  This
 * factorization keeps memory bounded while expressing arbitrary
 * inter-warp divergence (warp-specialized kernels are simply blocks
 * whose warps map to shapes of very different lengths).
 */

#ifndef SCSIM_TRACE_KERNEL_HH
#define SCSIM_TRACE_KERNEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/instruction.hh"

namespace scsim {

/** A straight-line warp instruction stream. */
struct WarpProgram
{
    std::vector<Instruction> code;

    /** Dynamic warp-instruction count (== static; no control flow). */
    std::size_t length() const { return code.size(); }
};

/** One kernel launch. */
struct KernelDesc
{
    std::string name = "kernel";
    int numBlocks = 1;
    int warpsPerBlock = 1;
    int regsPerThread = 32;
    std::uint32_t smemBytesPerBlock = 0;

    std::vector<WarpProgram> shapes;
    /** shape index per warp-in-block; size == warpsPerBlock. */
    std::vector<std::uint16_t> shapeOfWarp;

    /** Register bytes one warp occupies in its sub-core's file. */
    std::uint32_t
    regBytesPerWarp() const
    {
        return static_cast<std::uint32_t>(regsPerThread) * kWarpSize
            * kRegBytes;
    }

    const WarpProgram &
    programOf(int warpInBlock) const
    {
        return shapes[shapeOfWarp[static_cast<std::size_t>(warpInBlock)]];
    }

    /** Total dynamic warp instructions across the grid. */
    std::uint64_t totalWarpInstructions() const;

    /** Fatal on structural inconsistencies (shape refs, reg bounds). */
    void validate() const;
};

/** An application: kernels launched back-to-back (e.g. a TPC-H query). */
struct Application
{
    std::string name = "app";
    std::string suite = "misc";
    std::vector<KernelDesc> kernels;

    std::uint64_t totalWarpInstructions() const;
    void validate() const;

    /** Index of @p kernel in kernels, -1 for nullptr — how snapshots
     *  store kernel pointers; panics on a kernel of another app. */
    std::int64_t indexOf(const KernelDesc *kernel) const;

    /** Inverse of indexOf; throws CacheError when out of range. */
    const KernelDesc *kernelAt(std::int64_t idx) const;
};

} // namespace scsim

#endif // SCSIM_TRACE_KERNEL_HH
