/**
 * @file
 * Seeded mutation test of the binary snapshot payload (ctest labels
 * `checkpoint` and `fuzz`).
 *
 * A real mid-run payload of a small suite app is damaged the ways a
 * torn, tampered or hand-edited snapshot would be — byte flips,
 * truncations, overlong varints and swapped key ids — and each result
 * is fed to resume().  The contract is "reject or finish": either
 * CacheError escapes, or the resumed run completes.  Any other
 * exception, an abort or an out-of-bounds access (the asan preset
 * runs this binary) fails the test.  The seed is fixed, so mutation k
 * is the same bytes on every run and every machine.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/sim_error.hh"
#include "common/state_io.hh"
#include "sim/engine.hh"
#include "workloads/suite.hh"

namespace scsim {
namespace {

using sim::SimEngine;

constexpr std::uint64_t kMutationSeed = 0x5a9b0c7e5eedULL;
constexpr int kPerKind = 250;

GpuConfig
fuzzCfg()
{
    GpuConfig cfg = GpuConfig::volta();
    cfg.numSms = 2;
    return cfg;
}

/** A short app with memory traffic, so caches hold valid lines. */
AppSpec
fuzzApp()
{
    AppSpec app;
    app.name = "snapfuzz";
    app.suite = "test";
    app.numBlocks = 8;
    app.warpsPerBlock = 4;
    app.baseInsts = 120;
    app.footprintMB = 1;
    return app;
}

/** The mid-run payload the mutations start from. */
std::string
basePayload()
{
    std::vector<std::string> snaps;
    SimEngine engine(fuzzCfg());
    sim::EngineObserver obs;
    obs.onCheckpoint = [&](const std::string &payload, Cycle) {
        snaps.push_back(payload);
    };
    engine.addObserver(std::move(obs));
    engine.setCheckpointInterval(100);
    engine.runApp(fuzzApp(), 0, false);
    return snaps.empty() ? std::string() : snaps[snaps.size() / 2];
}

/** Every field of @p payload, with where its key id starts. */
struct Span
{
    std::size_t head;   //!< first byte of the key id
    StateReader::Field f;
};

std::vector<Span>
fields(const std::string &payload)
{
    std::vector<Span> out;
    StateReader r(payload);
    StateReader::Field f;
    std::size_t head = 0;
    while (r.next(f)) {
        out.push_back({ head, f });
        head = f.end;
    }
    return out;
}

enum class Kind
{
    ByteFlip,
    Truncate,
    OverlongVarint,
    SwapKeyIds,
};

const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::ByteFlip: return "byte flip";
      case Kind::Truncate: return "truncation";
      case Kind::OverlongVarint: return "overlong varint";
      case Kind::SwapKeyIds: return "swapped key ids";
    }
    return "?";
}

std::string
mutate(const std::string &base, const std::vector<Span> &spans, Kind kind,
       Rng &rng)
{
    std::string out = base;
    switch (kind) {
      case Kind::ByteFlip: {
        std::size_t at = rng.next(out.size());
        out[at] = static_cast<char>(out[at] ^ (1 << rng.next(8)));
        break;
      }
      case Kind::Truncate:
        out.resize(rng.next(out.size()));
        break;
      case Kind::OverlongVarint: {
        // A varint value re-encoded one byte longer than it needs.
        const StateReader::Field *f = nullptr;
        while (!f || (f->type != StateType::U64
                      && f->type != StateType::I64))
            f = &spans[rng.next(spans.size())].f;
        std::string v = out.substr(f->at, f->end - f->at);
        v.back() = static_cast<char>(v.back() | 0x80);
        out.replace(f->at, f->end - f->at, v + '\0');
        break;
      }
      case Kind::SwapKeyIds: {
        // Two single-byte key references of different keys trade ids.
        const Span *a = nullptr, *b = nullptr;
        while (!a || !b || a->f.key == b->f.key) {
            a = &spans[rng.next(spans.size())];
            b = &spans[rng.next(spans.size())];
            if (a->f.at - a->head != 1 || b->f.at - b->head != 1)
                a = nullptr;
        }
        std::swap(out[a->head], out[b->head]);
        break;
      }
    }
    return out;
}

TEST(SnapshotFuzz, MutatedPayloadIsRejectedOrResumesToCompletion)
{
    const std::string base = basePayload();
    ASSERT_FALSE(base.empty()) << "the app finished before a checkpoint";
    const std::vector<Span> spans = fields(base);
    ASSERT_FALSE(spans.empty());
    const AppSpec app = fuzzApp();

    // The unmutated payload resumes: the harness itself is sound.
    EXPECT_NO_THROW(SimEngine(fuzzCfg()).resumeApp(app, 0, base));

    Rng rng(kMutationSeed);
    for (Kind kind : { Kind::ByteFlip, Kind::Truncate,
                       Kind::OverlongVarint, Kind::SwapKeyIds }) {
        int rejected = 0, completed = 0;
        for (int i = 0; i < kPerKind; ++i) {
            std::string bad = mutate(base, spans, kind, rng);
            try {
                SimEngine(fuzzCfg()).resumeApp(app, 0, bad);
                ++completed;
            } catch (const CacheError &) {
                ++rejected;
            } catch (const std::exception &e) {
                ADD_FAILURE() << kindName(kind) << " #" << i
                              << " escaped as a non-CacheError: "
                              << e.what();
            }
        }
        std::printf("%-16s %3d rejected, %3d resumed to completion\n",
                    kindName(kind), rejected, completed);
        // Damage the decoder sees must never be taken as state.
        if (kind == Kind::OverlongVarint || kind == Kind::SwapKeyIds)
            EXPECT_EQ(rejected, kPerKind) << kindName(kind);
    }
}

} // namespace
} // namespace scsim
