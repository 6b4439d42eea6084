#include "trace/kernel.hh"

#include "common/logging.hh"

namespace scsim {

std::uint64_t
KernelDesc::totalWarpInstructions() const
{
    std::uint64_t perBlock = 0;
    for (int w = 0; w < warpsPerBlock; ++w)
        perBlock += programOf(w).length();
    return perBlock * static_cast<std::uint64_t>(numBlocks);
}

void
KernelDesc::validate() const
{
    if (numBlocks < 1)
        scsim_throw(WorkloadError, "kernel '%s': numBlocks must be >= 1", name.c_str());
    if (warpsPerBlock < 1 || warpsPerBlock > 64)
        scsim_throw(WorkloadError, "kernel '%s': warpsPerBlock %d out of [1,64]",
                    name.c_str(), warpsPerBlock);
    if (regsPerThread < 1 || regsPerThread > 256)
        scsim_throw(WorkloadError, "kernel '%s': regsPerThread %d out of [1,256]",
                    name.c_str(), regsPerThread);
    if (shapeOfWarp.size() != static_cast<std::size_t>(warpsPerBlock))
        scsim_throw(WorkloadError, "kernel '%s': shapeOfWarp has %zu entries, "
                    "expected %d", name.c_str(), shapeOfWarp.size(),
                    warpsPerBlock);
    if (shapes.empty())
        scsim_throw(WorkloadError, "kernel '%s': no shapes", name.c_str());
    for (std::uint16_t s : shapeOfWarp) {
        if (s >= shapes.size())
            scsim_throw(WorkloadError, "kernel '%s': shape index %u out of range",
                        name.c_str(), s);
    }
    for (std::size_t si = 0; si < shapes.size(); ++si) {
        const auto &code = shapes[si].code;
        if (code.empty() || code.back().op != Opcode::EXIT)
            scsim_throw(WorkloadError, "kernel '%s': shape %zu must end in EXIT",
                        name.c_str(), si);
        for (std::size_t pc = 0; pc < code.size(); ++pc) {
            const Instruction &inst = code[pc];
            if (inst.op == Opcode::EXIT && pc + 1 != code.size())
                scsim_throw(WorkloadError, "kernel '%s': shape %zu has EXIT mid-stream",
                            name.c_str(), si);
            auto checkReg = [&](RegIndex r) {
                if (r != kNoReg && (r < 0 || r >= regsPerThread))
                    scsim_throw(WorkloadError, "kernel '%s': shape %zu pc %zu register "
                                "%d out of window [0,%d)", name.c_str(),
                                si, pc, r, regsPerThread);
            };
            checkReg(inst.dst);
            for (RegIndex r : inst.srcs)
                checkReg(r);
            if (isMemory(inst.op) && inst.mem.footprintBytes == 0)
                scsim_throw(WorkloadError, "kernel '%s': shape %zu pc %zu memory "
                            "footprint is zero", name.c_str(), si, pc);
        }
    }
}

std::uint64_t
Application::totalWarpInstructions() const
{
    std::uint64_t total = 0;
    for (const auto &k : kernels)
        total += k.totalWarpInstructions();
    return total;
}

void
Application::validate() const
{
    if (kernels.empty())
        scsim_throw(WorkloadError, "application '%s' has no kernels", name.c_str());
    for (const auto &k : kernels)
        k.validate();
}

std::int64_t
Application::indexOf(const KernelDesc *kernel) const
{
    if (!kernel)
        return -1;
    for (std::size_t i = 0; i < kernels.size(); ++i)
        if (&kernels[i] == kernel)
            return static_cast<std::int64_t>(i);
    scsim_panic("kernel '%s' is not part of application '%s'",
                kernel->name.c_str(), name.c_str());
}

const KernelDesc *
Application::kernelAt(std::int64_t idx) const
{
    if (idx < 0)
        return nullptr;
    if (idx >= static_cast<std::int64_t>(kernels.size()))
        scsim_throw(CacheError,
                    "snapshot: kernel index %lld out of range (%zu "
                    "kernels)",
                    static_cast<long long>(idx), kernels.size());
    return &kernels[static_cast<std::size_t>(idx)];
}

} // namespace scsim
