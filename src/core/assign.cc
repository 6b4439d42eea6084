#include "core/assign.hh"

#include <numeric>

#include "common/logging.hh"
#include "common/state_io.hh"

namespace scsim {

int
RoundRobinAssigner::nextSubcore()
{
    return static_cast<int>(w_++ % static_cast<std::uint64_t>(n_));
}

int
SrrAssigner::nextSubcore()
{
    std::uint64_t n = static_cast<std::uint64_t>(n_);
    int sub = static_cast<int>((w_ + w_ / n) % n);
    ++w_;
    return sub;
}

template <class Ar>
void
RoundRobinAssigner::state(Ar &ar)
{
    ar.u64("assign.w", w_);
}

template void RoundRobinAssigner::state(StateWriter &);
template void RoundRobinAssigner::state(StateReader &);

template <class Ar>
void
SrrAssigner::state(Ar &ar)
{
    ar.u64("assign.w", w_);
}

template void SrrAssigner::state(StateWriter &);
template void SrrAssigner::state(StateReader &);

ShuffleAssigner::ShuffleAssigner(int numSubcores, std::uint64_t seed)
    : SubcoreAssigner(numSubcores), seed_(seed), rng_(seed)
{
    refill();
}

void
ShuffleAssigner::refill()
{
    perm_.resize(static_cast<std::size_t>(n_));
    std::iota(perm_.begin(), perm_.end(), 0);
    rng_.shuffle(perm_);
    pos_ = 0;
}

int
ShuffleAssigner::nextSubcore()
{
    if (pos_ == perm_.size())
        refill();
    return perm_[pos_++];
}

void
ShuffleAssigner::reset()
{
    rng_ = Rng(seed_);
    refill();
}

template <class Ar>
void
ShuffleAssigner::state(Ar &ar)
{
    Rng::State st = rng_.state();
    for (std::uint64_t &word : st.s)
        ar.u64("assign.rng", word);
    // perm_ always holds n_ entries (refill() sizes it at construction).
    for (int &p : perm_)
        ar.index("assign.perm", p, perm_.size());
    // pos_ == size: the permutation is used up, refilled on next use.
    ar.index("assign.pos", pos_, perm_.size() + 1);
    if constexpr (Ar::kLoading)
        rng_.setState(st);
}

template void ShuffleAssigner::state(StateWriter &);
template void ShuffleAssigner::state(StateReader &);

HashTableAssigner::HashTableAssigner(int numSubcores, int entries)
    : SubcoreAssigner(numSubcores),
      table_(static_cast<std::size_t>(entries), 0)
{
    scsim_assert(numSubcores == 4,
                 "the hash-table engine drives a 4:1 mux (2 selects)");
    scsim_assert(entries == 4 || entries == 16,
                 "hash table holds 4 or 16 entries");
}

std::uint8_t
HashTableAssigner::encodeEntry(const int subcores[4])
{
    std::uint8_t upper = 0;   // select line 0 (bit 0 of the sub-core id)
    std::uint8_t lower = 0;   // select line 1 (bit 1 of the sub-core id)
    for (int j = 0; j < 4; ++j) {
        upper = static_cast<std::uint8_t>(
            upper | ((subcores[j] & 1) << j));
        lower = static_cast<std::uint8_t>(
            lower | (((subcores[j] >> 1) & 1) << j));
    }
    return static_cast<std::uint8_t>((upper << 4) | lower);
}

int
HashTableAssigner::nextSubcore()
{
    std::uint64_t group = (w_ / 4) % table_.size();
    int j = static_cast<int>(w_ % 4);
    ++w_;
    std::uint8_t e = table_[group];
    int sel0 = (e >> (4 + j)) & 1;
    int sel1 = (e >> j) & 1;
    return (sel1 << 1) | sel0;
}

template <class Ar>
void
HashTableAssigner::state(Ar &ar)
{
    ar.u64("assign.w", w_);
    // The table is programmed deterministically at construction, but a
    // test may have repatched it through setEntry — persist it too.
    for (std::uint8_t &e : table_)
        ar.u64("assign.entry", e);
}

template void HashTableAssigner::state(StateWriter &);
template void HashTableAssigner::state(StateReader &);

void
HashTableAssigner::programSrr()
{
    // SRR for N=4 reduces to: group g assigns [g, g+1, g+2, g+3] mod 4.
    for (std::size_t g = 0; g < table_.size(); ++g) {
        int subs[4];
        for (int j = 0; j < 4; ++j)
            subs[j] = static_cast<int>((g + static_cast<std::size_t>(j))
                                       % 4);
        table_[g] = encodeEntry(subs);
    }
}

void
HashTableAssigner::programShuffle(Rng &rng)
{
    for (std::size_t g = 0; g < table_.size(); ++g) {
        std::vector<int> perm(4);
        std::iota(perm.begin(), perm.end(), 0);
        rng.shuffle(perm);
        int subs[4] = { perm[0], perm[1], perm[2], perm[3] };
        table_[g] = encodeEntry(subs);
    }
}

sim::Registry<sim::AssignerFactory> &
sim::assignerRegistry()
{
    // Seeded on first use with the built-in policies; hash-table sizing
    // comes from the config, per-SM subcore count and seed from the
    // AssignerContext of the constructing SM.
    static Registry<AssignerFactory> reg = [] {
        Registry<AssignerFactory> r("assignment policy");
        r.add("RR", "round robin: subcore = W mod N (hardware baseline)",
              [](const GpuConfig &, const AssignerContext &ctx) {
                  return std::make_unique<RoundRobinAssigner>(
                      ctx.numSubcores);
              });
        r.add("SRR", "skewed round robin: (W + floor(W/N)) mod N",
              [](const GpuConfig &, const AssignerContext &ctx) {
                  return std::make_unique<SrrAssigner>(ctx.numSubcores);
              });
        r.add("Shuffle", "random permutation per group of N warps",
              [](const GpuConfig &, const AssignerContext &ctx) {
                  return std::make_unique<ShuffleAssigner>(
                      ctx.numSubcores, ctx.seed);
              });
        r.add("HashSRR", "Fig 7 hash-table engine, SRR program",
              [](const GpuConfig &cfg, const AssignerContext &ctx)
                  -> std::unique_ptr<SubcoreAssigner> {
                  auto a = std::make_unique<HashTableAssigner>(
                      ctx.numSubcores, cfg.hashTableEntries);
                  a->programSrr();
                  return a;
              });
        r.add("HashShuffle", "Fig 7 hash-table engine, random program",
              [](const GpuConfig &cfg, const AssignerContext &ctx)
                  -> std::unique_ptr<SubcoreAssigner> {
                  auto a = std::make_unique<HashTableAssigner>(
                      ctx.numSubcores, cfg.hashTableEntries);
                  Rng rng(ctx.seed);
                  a->programShuffle(rng);
                  return a;
              });
        return r;
    }();
    return reg;
}

std::unique_ptr<SubcoreAssigner>
makeAssigner(const GpuConfig &cfg, int numSubcores, std::uint64_t seed)
{
    sim::AssignerContext ctx;
    ctx.numSubcores = numSubcores;
    ctx.seed = seed;
    return sim::assignerRegistry().lookup(toString(cfg.assign))(cfg, ctx);
}

std::unique_ptr<SubcoreAssigner>
makeAssigner(AssignPolicy policy, int numSubcores, int hashEntries,
             std::uint64_t seed)
{
    GpuConfig cfg;
    cfg.assign = policy;
    cfg.hashTableEntries = hashEntries;
    return makeAssigner(cfg, numSubcores, seed);
}

} // namespace scsim
