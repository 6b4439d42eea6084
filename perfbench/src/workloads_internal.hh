/**
 * @file
 * Scoped resources shared by the workloads and the layer probes.
 */

#ifndef PERFBENCH_WORKLOADS_INTERNAL_HH
#define PERFBENCH_WORKLOADS_INTERNAL_HH

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "farm/farm_client.hh"
#include "farm/farm_server.hh"

namespace perfbench {

/** Set by SIGINT/SIGTERM; rounds stop and unwind at the next check. */
extern std::atomic<bool> g_interrupted;

/** The daemon a signal handler must stop so blocked clients return. */
extern std::atomic<scsim::farm::FarmServer *> g_activeServer;

/** A directory removed with everything in it when this goes away. */
class ScratchDir
{
  public:
    ScratchDir() = default;
    ~ScratchDir() { remove(); }

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    /** Create @p path (and parents), replacing any earlier one held. */
    void create(const std::string &path);
    void remove();
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/**
 * An in-process FarmServer on a Unix socket in its own scratch
 * directory (cache, state dir), run()ning on a thread, with connected
 * clients.  The destructor closes the clients, stops the daemon, joins
 * it (its run-job children have been reaped by then) and removes the
 * directory, so every exit path (a failed check, an exception)
 * leaves no process, socket or file behind.
 */
struct FarmSession
{
    FarmSession() = default;
    ~FarmSession();

    FarmSession(const FarmSession &) = delete;
    FarmSession &operator=(const FarmSession &) = delete;

    /** Create the directory, start the daemon, connect the clients
     *  (plus a status sampler when tracing). */
    void start(const Options &opts, const std::string &name, int workers,
               int clientCount);

    Plan plan;
    ScratchDir dir;
    std::unique_ptr<scsim::farm::FarmServer> server;
    std::vector<std::unique_ptr<scsim::farm::FarmClient>> clients;
    std::unique_ptr<scsim::farm::FarmClient> sampler;
    std::thread thread;  //!< declared after what run() uses
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_INTERNAL_HH
