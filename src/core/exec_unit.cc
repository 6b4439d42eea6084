#include "core/exec_unit.hh"

#include "common/state_io.hh"

namespace scsim {

PipeSet::PipeSet(const GpuConfig &cfg, int schedulers)
{
    auto addPipes = [&](UnitKind kind, int perSched, int init, int lat) {
        for (int i = 0; i < perSched * schedulers; ++i)
            pipes_.emplace_back(kind, init, lat);
    };
    addPipes(UnitKind::SP, cfg.spPipesPerScheduler, cfg.spInitiation,
             cfg.spLatency);
    addPipes(UnitKind::SFU, cfg.sfuPipesPerScheduler, cfg.sfuInitiation,
             cfg.sfuLatency);
    addPipes(UnitKind::Tensor, cfg.tensorPipesPerScheduler,
             cfg.tensorInitiation, cfg.tensorLatency);
    addPipes(UnitKind::LdSt, cfg.ldstPipesPerScheduler,
             cfg.ldstInitiation, 0);
}

ExecPipe *
PipeSet::findFree(UnitKind kind, Cycle now)
{
    for (auto &pipe : pipes_)
        if (pipe.kind() == kind && pipe.canAccept(now))
            return &pipe;
    return nullptr;
}

void
PipeSet::reset()
{
    for (auto &pipe : pipes_)
        pipe.reset();
}

template <class Ar>
void
PipeSet::state(Ar &ar)
{
    for (ExecPipe &pipe : pipes_)
        ar.u64("pipe.busyUntil", pipe.busyUntil_);
}

void
PipeSet::checkRestored(Cycle now) const
{
    for (const ExecPipe &pipe : pipes_)
        if (pipe.busyUntil_ > now + static_cast<Cycle>(pipe.initiation_))
            scsim_throw(CacheError,
                        "snapshot field 'pipe.busyUntil': busy until cycle "
                        "%llu, snapshot taken at %llu",
                        static_cast<unsigned long long>(pipe.busyUntil_),
                        static_cast<unsigned long long>(now));
}

template void PipeSet::state(StateWriter &);
template void PipeSet::state(StateReader &);

} // namespace scsim
