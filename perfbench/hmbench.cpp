/**
 * @file
 * hmbench — the serving benchmark's load generator, checker and layer
 * tracer. perfbench/run.py builds it and calls it; see
 * perfbench/README.md for the workloads and metrics.
 *
 * One run launches a real hmserved (`--threads=2`, a fresh
 * `--data-dir` under the run directory) and drives it over loopback
 * from this single process with two threads, one keep-alive
 * connection each:
 *
 *  1. set-up, five times (median reported): launch → /healthz,
 *     register the generated suite, and on hit_mix warm the result
 *     cache with its 64 keys; the last daemon is kept;
 *  2. open loop: Poisson arrivals at the workload's fixed rate, each
 *     latency timed from the request's *scheduled* send time;
 *  3. closed loop: both connections back to back, for docs_per_s;
 *  4. validity: the engine hit ratio scraped from /metrics must be 1
 *     on hit_mix and 0 on miss_large, and the generator must have
 *     kept its own schedule;
 *  5. correctness: a seeded sample of answers is recomputed in
 *     process and compared bit for bit, and re-requested in the other
 *     wire format.
 *
 * With `--trace=1` the daemon runs with `--trace`, one set-up is made,
 * the open loop runs for half the time, and the other half replays its
 * requests through the request path's public calls in this process
 * (layers.h), reporting per-layer calls, self-time p50 and share.
 *
 * Usage:
 *   hmbench --workload=NAME --seed=N --seconds=S --trace=0|1
 *           --hmserved=PATH --run-dir=DIR
 *
 * The last stdout line is the result object; the exit status is 1
 * when the run is invalid or an answer was wrong.
 */

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "layers.h"
#include "requests.h"
#include "src/server/client.h"
#include "src/server/json.h"
#include "src/util/cli.h"
#include "src/util/error.h"
#include "src/util/net.h"

namespace perfbench {
namespace {

using namespace hiermeans;
using Clock = std::chrono::steady_clock;

/** Share of the measured seconds spent in the open loop; the closed
 *  loop gets the rest. */
constexpr double kOpenShare = 0.78;
/** Generator lateness (p99) beyond which a run is invalid. */
constexpr double kMaxLagP99Millis = 10.0;
/** Set-ups per measured run; the median is reported. */
constexpr int kSetups = 5;
/** Answers kept per connection for the correctness check. */
constexpr std::size_t kSamplesPerConnection = 4;
/** Connections (one thread each). */
constexpr unsigned kConnections = 2;
/** Newest daemon traces read back per connection (the daemon keeps
 *  4096 in all). */
constexpr std::size_t kTracesPerConnection = 512;
/** Answers kept per connection for the traced replay. */
constexpr std::size_t kKeptAnswers = 20000;
/** Open-loop latencies are pooled from at least this many requests,
 *  so that twenty lie beyond the p99. */
constexpr std::size_t kTailSamples = 2000;

double
millisBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

Clock::duration
secondsFrom(double seconds)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
}

/** A running hmserved; stopped and reaped on destruction. */
class Daemon
{
  public:
    Daemon(const std::string &binary, const std::string &dataDir,
           const std::string &logPath, bool traced)
    {
        std::vector<std::string> args = {
            binary, "--port=0", "--threads=2", "--data-dir=" + dataDir,
            "--quiet"};
        if (traced) {
            args.push_back("--trace");
            args.push_back("--trace-keep=4096");
        }
        // Everything the child needs is made before fork: between fork
        // and exec only async-signal-safe calls are allowed.
        std::vector<char *> argv;
        for (std::string &arg : args)
            argv.push_back(arg.data());
        argv.push_back(nullptr);
        const int log =
            open(logPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        HM_REQUIRE(log >= 0, "cannot open " << logPath);
        int out[2];
        if (pipe(out) != 0) {
            close(log);
            HM_REQUIRE(false, "pipe failed");
        }
        pid_ = fork();
        if (pid_ == 0) {
            dup2(out[1], STDOUT_FILENO);
            dup2(log, STDERR_FILENO);
            close(out[0]);
            execv(argv[0], argv.data());
            _exit(127);
        }
        close(log);
        close(out[1]);
        out_ = out[0];
        if (pid_ < 0) {
            close(out_);
            HM_REQUIRE(false, "fork failed");
        }
        try {
            port_ = awaitPort();
        } catch (...) {
            stop(); // the destructor does not run for a failed constructor.
            throw;
        }
    }

    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    std::uint16_t port() const { return port_; }

    /** Peak resident set (VmHWM) in MiB. */
    double peakRssMib() const
    {
        std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
        std::string key;
        while (status >> key) {
            if (key == "VmHWM:") {
                double kib = 0.0;
                status >> kib;
                return kib / 1024.0;
            }
            status.ignore(1 << 20, '\n');
        }
        HM_REQUIRE(false, "no VmHWM for hmserved pid " << pid_);
        return 0.0;
    }

    /** SIGTERM, then SIGKILL after 10 s; always reaps. */
    void stop()
    {
        if (pid_ <= 0)
            return;
        kill(pid_, SIGTERM);
        int status = 0;
        const auto deadline = Clock::now() + std::chrono::seconds(10);
        while (waitpid(pid_, &status, WNOHANG) == 0) {
            if (Clock::now() > deadline) {
                kill(pid_, SIGKILL);
                waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        pid_ = -1;
        close(out_);
    }

  private:
    /** Read stdout until `listening on port N` (20 s budget). */
    std::uint16_t awaitPort()
    {
        static const std::string kMarker = "listening on port ";
        std::string seen;
        const auto deadline = Clock::now() + std::chrono::seconds(20);
        while (Clock::now() < deadline) {
            pollfd fd{out_, POLLIN, 0};
            if (poll(&fd, 1, 50) <= 0)
                continue;
            char buffer[512];
            const ssize_t n = read(out_, buffer, sizeof(buffer));
            HM_REQUIRE(n > 0, "hmserved exited during start-up: " << seen);
            seen.append(buffer, static_cast<std::size_t>(n));
            const std::size_t at = seen.find(kMarker);
            if (at != std::string::npos &&
                seen.find('\n', at) != std::string::npos)
                return static_cast<std::uint16_t>(
                    std::stoul(seen.substr(at + kMarker.size())));
        }
        HM_REQUIRE(false, "hmserved did not report its port: " << seen);
        return 0;
    }

    pid_t pid_ = -1;
    int out_ = -1;
    std::uint16_t port_ = 0;
};

/** Everything a run shares between its phases. */
struct Context
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool traced = false;
    std::string hmserved;
    std::string runDir;
    Suite suite;
};

server::HttpClient::Headers
acceptHeader(const Request &request)
{
    if (*request.accept() == '\0')
        return {};
    return {{"Accept", request.accept()}};
}

/** True when a 200 answer carries every document it should, none of
 *  them failed or stale. Bodies are fully checked on the sample. */
bool
answerLooksOk(const Request &request,
              const server::HttpResponseParser::Response &response)
{
    static const std::string kNone;
    if (response.status != 200 ||
        response.header("x-hiermeans-stale", kNone) == "1")
        return false;
    switch (request.shape) {
    case Shape::BatchBinary: {
        wire::FrameReader reader(response.body);
        wire::Frame frame;
        std::size_t ok = 0;
        while (reader.next(frame))
            ok += wire::decodeBatchItem(frame).ok ? 1 : 0;
        return ok == kLines && !reader.sawCorruption();
    }
    case Shape::BatchText: {
        std::size_t ok = 0;
        for (std::size_t at = response.body.find("{\"ok\":true");
             at != std::string::npos;
             at = response.body.find("{\"ok\":true", at + 1))
            ++ok;
        return ok == kLines;
    }
    default: return true;
    }
}

/** One answered request, kept for checking. */
struct Answer
{
    Request request;
    std::string body;
};

/** What one connection saw in one phase. */
struct ConnectionLog
{
    // Open loop: per request, in schedule order.
    std::vector<double> latencies; ///< ms from the scheduled send.
    std::vector<double> dues;      ///< ms from phase start to schedule.
    std::vector<double> lags;      ///< ms the generator sent late.
    /** Closed loop: completion time and documents of each answer. */
    std::vector<std::pair<Clock::time_point, std::size_t>> completions;
    std::vector<std::string> traceIds;
    std::vector<Answer> answers; ///< every answer (traced open loop).
    std::vector<Answer> sample;  ///< seeded reservoir.
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t docs = 0;
    std::size_t seen = 0;
};

/** Sleep until shortly before @p due, then spin: a plain sleep wakes
 *  tens of microseconds late, a visible share of a cache hit. */
void
waitUntil(Clock::time_point due)
{
    std::this_thread::sleep_until(due - std::chrono::microseconds(20));
    while (Clock::now() < due) {
    }
}

/** Send @p request on @p client and log the outcome. */
void
sendLogged(server::HttpClient &client, const Request &request, const std::string &body,
           ConnectionLog &log, Rng &sampler, bool keepAll)
{
    ++log.attempted;
    try {
        const server::HttpResponseParser::Response response =
            client.roundTrip("POST", request.target(), body,
                             request.contentType(), acceptHeader(request));
        if (!answerLooksOk(request, response)) {
            ++log.failed;
            return;
        }
        log.docs += request.docs();
        static const std::string kNone;
        const std::string &trace =
            response.header("x-hiermeans-trace", kNone);
        if (!trace.empty())
            log.traceIds.push_back(trace);
        if (keepAll && log.answers.size() < kKeptAnswers)
            log.answers.push_back(Answer{request, response.body});
        // Reservoir sampling: a seeded, uniform sample of answers.
        ++log.seen;
        if (log.sample.size() < kSamplesPerConnection)
            log.sample.push_back(Answer{request, response.body});
        else if (const std::size_t j = sampler.below(log.seen);
                 j < kSamplesPerConnection)
            log.sample[j] = Answer{request, response.body};
    } catch (const std::exception &) {
        ++log.failed;
        client.disconnect();
    }
}

/**
 * Poisson arrivals at ctx.workload->rate split over the connections.
 * Latency runs from the scheduled send time; lag is how late the
 * generator sent once its connection was free.
 */
ConnectionLog
openLoop(const Context &ctx, std::uint16_t port, unsigned slice,
         Clock::time_point start, Clock::time_point end, bool keepAll)
{
    // The default 50 us timer slack would make every wake-up late.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    ConnectionLog log;
    server::HttpClient client("127.0.0.1", port);
    RequestStream stream(*ctx.workload, ctx.seed, slice);
    Rng gaps(derive(ctx.seed, 200 + slice));
    Rng sampler(derive(ctx.seed, 300 + slice));
    const double rate = ctx.workload->rate / kConnections;
    Clock::time_point due = start;
    Clock::time_point free = start;
    for (;;) {
        due += secondsFrom(-std::log1p(-gaps.uniform()) / rate);
        if (due >= end)
            break;
        const Request request = stream.next();
        const std::string body = request.body(ctx.suite, *ctx.workload);
        waitUntil(due);
        const Clock::time_point sent = Clock::now();
        log.lags.push_back(millisBetween(std::max(due, free), sent));
        sendLogged(client, request, body, log, sampler, keepAll);
        free = Clock::now();
        log.latencies.push_back(millisBetween(due, free));
        log.dues.push_back(millisBetween(start, due));
    }
    return log;
}

/** Back-to-back requests until @p end. */
ConnectionLog
closedLoop(const Context &ctx, std::uint16_t port, unsigned slice,
           Clock::time_point end)
{
    ConnectionLog log;
    server::HttpClient client("127.0.0.1", port);
    RequestStream stream(*ctx.workload, ctx.seed, slice);
    Rng sampler(derive(ctx.seed, 300 + slice));
    while (Clock::now() < end) {
        const Request request = stream.next();
        const std::size_t before = log.docs;
        sendLogged(client, request, request.body(ctx.suite, *ctx.workload),
                   log, sampler, false);
        log.completions.emplace_back(Clock::now(), log.docs - before);
    }
    return log;
}

/** The host's cumulative steal time in clock ticks (/proc/stat): time
 *  the hypervisor ran something else while this VM wanted the CPU. */
long
stealTicks()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    long fields[8] = {};
    stat >> cpu;
    for (long &field : fields)
        stat >> field;
    return cpu == "cpu" ? fields[7] : 0;
}

/** What every connection of one phase saw, plus the host's steal in
 *  each whole second of the phase. */
struct Phase
{
    std::vector<ConnectionLog> logs;
    Clock::time_point start;
    std::vector<long> steal; ///< ticks stolen in second i.
};

/**
 * Run @p body on every connection at once from @p start to @p end;
 * logs in slice order. The calling thread samples steal time at each
 * second boundary meanwhile.
 */
template <typename Body>
Phase
runPhase(unsigned firstSlice, Clock::time_point start, Clock::time_point end,
         Body body)
{
    Phase phase;
    phase.start = start;
    phase.logs.resize(kConnections);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kConnections; ++c)
        threads.emplace_back(
            [&, c] { phase.logs[c] = body(firstSlice + c); });
    long last = stealTicks();
    for (auto tick = start + std::chrono::seconds(1); tick <= end;
         tick += std::chrono::seconds(1)) {
        std::this_thread::sleep_until(tick);
        const long now = stealTicks();
        phase.steal.push_back(now - last);
        last = now;
    }
    for (std::thread &thread : threads)
        thread.join();
    return phase;
}

/**
 * The whole seconds of @p phase in which the hypervisor stole the
 * least: every second whose steal is at most that of the @p share
 * quantile second, grown until @p weight (per-second sample counts)
 * reaches @p minWeight. Where the host reports no steal, all seconds.
 */
std::vector<bool>
quietSeconds(const Phase &phase, double share,
             const std::vector<std::size_t> &weight, std::size_t minWeight)
{
    std::vector<std::size_t> order(phase.steal.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return phase.steal[a] < phase.steal[b];
                     });
    std::vector<bool> quiet(order.size(), false);
    std::size_t taken = 0;
    std::size_t pooled = 0;
    long threshold = 0;
    for (std::size_t second : order) {
        if (static_cast<double>(taken) >=
                share * static_cast<double>(order.size()) &&
            pooled >= minWeight && phase.steal[second] > threshold)
            break;
        quiet[second] = true;
        threshold = phase.steal[second];
        pooled += weight[second];
        ++taken;
    }
    return quiet;
}

/** Sum of every sample of @p family in a Prometheus exposition. */
double
scrape(const std::string &exposition, const std::string &family)
{
    double total = 0.0;
    std::istringstream in(exposition);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(family, 0) != 0 || line.size() <= family.size())
            continue;
        const char next = line[family.size()];
        if (next != ' ' && next != '{')
            continue;
        total += std::stod(line.substr(line.rfind(' ') + 1));
    }
    return total;
}

/** Engine request and hit (cache + dedupe) counters. */
struct EngineCounters
{
    double requests = 0.0;
    double hits = 0.0;
};

EngineCounters
engineCounters(std::uint16_t port)
{
    server::HttpClient client("127.0.0.1", port);
    const auto response = client.roundTrip("GET", "/metrics");
    HM_REQUIRE(response.status == 200, "/metrics answered "
                                           << response.status);
    return EngineCounters{
        scrape(response.body, "hiermeans_engine_requests_total"),
        scrape(response.body, "hiermeans_engine_cache_hits_total") +
            scrape(response.body, "hiermeans_engine_dedup_total")};
}

/**
 * One set-up: launch → healthy, register the suite, warm the cache on
 * hit_mix. Returns the running daemon; @p seconds gets the time taken.
 */
std::unique_ptr<Daemon>
setUp(const Context &ctx, int index, double &seconds,
      std::vector<ConnectionLog> *warmed = nullptr)
{
    const std::string dataDir =
        ctx.runDir + "/data" + std::to_string(index);
    std::filesystem::remove_all(dataDir);
    const Clock::time_point started = Clock::now();
    auto daemon = std::make_unique<Daemon>(
        ctx.hmserved, dataDir,
        ctx.runDir + "/hmserved" + std::to_string(index) + ".log",
        ctx.traced);

    server::HttpClient client("127.0.0.1", daemon->port());
    for (int attempt = 0;; ++attempt) {
        try {
            if (client.roundTrip("GET", "/healthz").status == 200)
                break;
        } catch (const Error &) {
            client.disconnect();
        }
        HM_REQUIRE(attempt < 5000, "hmserved never became healthy");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const auto registered = client.roundTrip(
        "POST", "/v1/suites?name=" + ctx.suite.name + "&generator=bigdata",
        ctx.suite.manifestText);
    HM_REQUIRE(registered.status == 200,
               "suite registration answered " << registered.status << ": "
                                              << registered.body);

    if (ctx.workload->repeatKeys) {
        const std::vector<Request> keys = keyRequests(*ctx.workload, ctx.seed);
        std::atomic<std::size_t> next{0};
        std::atomic<bool> ok{true};
        // Both connections at once, with nothing to time.
        const Clock::time_point now = Clock::now();
        Phase warm = runPhase(0, now, now, [&](unsigned) {
            ConnectionLog log;
            server::HttpClient client("127.0.0.1", daemon->port());
            for (std::size_t i = next++; i < keys.size(); i = next++) {
                const auto response = client.roundTrip(
                    "POST", keys[i].target(),
                    keys[i].body(ctx.suite, *ctx.workload),
                    keys[i].contentType());
                if (response.status != 200)
                    ok = false;
                static const std::string kNone;
                const std::string &trace =
                    response.header("x-hiermeans-trace", kNone);
                if (!trace.empty())
                    log.traceIds.push_back(trace);
            }
            return log;
        });
        HM_REQUIRE(ok, "cache warm-up request failed");
        if (warmed != nullptr)
            *warmed = std::move(warm.logs);
    }
    seconds = millisBetween(started, Clock::now()) / 1e3;
    return daemon;
}

/** Result accumulator printed as the last stdout line. */
struct Result
{
    bool correct = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::tuple<std::string, double, std::string>> metrics;
    std::vector<std::string> problems;

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.emplace_back(name, std::isfinite(value) ? value : 0.0, unit);
    }

    void invalid(const std::string &why)
    {
        correct = false;
        problems.push_back(why);
    }

    void absorb(const std::vector<ConnectionLog> &logs)
    {
        for (const ConnectionLog &log : logs) {
            attempted += log.attempted;
            failed += log.failed;
        }
    }

    std::string json() const
    {
        std::ostringstream out;
        out << std::setprecision(17);
        out << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            const auto &[name, value, unit] = metrics[i];
            out << (i ? ", " : "") << server::json::quote(name)
                << ": {\"value\": " << value
                << ", \"unit\": " << server::json::quote(unit) << "}";
        }
        out << "}}";
        return out.str();
    }
};

/**
 * Check the seeded sample: recompute every sampled answer in process,
 * and ask for it again in the other wire format. Mismatches count as
 * failed requests and invalidate the run.
 */
void
checkSample(const Context &ctx, std::uint16_t port,
            const std::vector<ConnectionLog> &logs, Result &result)
{
    engine::CsvCache csvs;
    server::HttpClient client("127.0.0.1", port);
    std::size_t checked = 0;
    std::size_t mismatched = 0;
    for (const ConnectionLog &log : logs)
        for (const Answer &answer : log.sample) {
            ++checked;
            bool same = false;
            try {
                const auto served =
                    decodeAnswer(answer.request, answer.body);
                const Request other = answer.request.otherFormat();
                const auto again = client.roundTrip(
                    "POST", other.target(),
                    other.body(ctx.suite, *ctx.workload),
                    other.contentType(), acceptHeader(other));
                same = again.status == 200 &&
                       sameDocuments(served,
                                     decodeAnswer(other, again.body)) &&
                       sameDocuments(served,
                                     referenceAnswer(answer.request,
                                                     ctx.suite,
                                                     *ctx.workload, csvs));
            } catch (const std::exception &e) {
                std::cerr << "hmbench: sampled answer failed to decode: "
                          << e.what() << "\n";
            }
            if (!same)
                ++mismatched;
        }
    result.attempted += checked;
    result.failed += mismatched;
    if (mismatched > 0)
        result.invalid(std::to_string(mismatched) + " of " +
                       std::to_string(checked) +
                       " sampled answers differ from the in-process "
                       "reference");
    std::cerr << "hmbench: " << checked << " sampled answers checked, "
              << mismatched << " mismatched\n";
}

/** Apply the hit-ratio gate and report the ratio. */
double
hitRatio(const Context &ctx, const EngineCounters &before,
         const EngineCounters &after, Result &result)
{
    const double requests = after.requests - before.requests;
    const double ratio =
        requests > 0.0 ? (after.hits - before.hits) / requests : 0.0;
    if (ctx.workload->repeatKeys ? ratio < 1.0 : ratio != 0.0)
        result.invalid("engine hit ratio " + std::to_string(ratio) +
                       " on " + ctx.workload->name);
    return ratio;
}

/** Apply the generator-lateness gate and return the lag p99. */
double
lagP99(const std::vector<ConnectionLog> &logs, Result &result)
{
    std::vector<double> lags;
    for (const ConnectionLog &log : logs)
        lags.insert(lags.end(), log.lags.begin(), log.lags.end());
    const double p99 = percentile(lags, 0.99);
    if (p99 > kMaxLagP99Millis)
        result.invalid("generator fell behind its schedule: lag p99 " +
                       std::to_string(p99) + " ms");
    return p99;
}

/**
 * Open-loop latency over the host's quiet seconds. A shared host takes
 * the CPU away for a second or more at a time, which shows as
 * millisecond stalls in the requests of those seconds, so latencies
 * are pooled from the seconds with the least steal: at least a quarter
 * of them, and enough for kTailSamples requests.
 */
struct QuietLatency
{
    double p50 = 0.0;
    double p99 = 0.0;
    std::size_t pooled = 0;
};

QuietLatency
quietLatency(const Phase &open)
{
    std::vector<std::vector<double>> seconds(open.steal.size());
    for (const ConnectionLog &log : open.logs)
        for (std::size_t i = 0; i < log.latencies.size(); ++i) {
            const auto second = static_cast<std::size_t>(log.dues[i] / 1e3);
            if (second < seconds.size())
                seconds[second].push_back(log.latencies[i]);
        }
    std::vector<std::size_t> counts;
    for (const std::vector<double> &second : seconds)
        counts.push_back(second.size());
    const std::vector<bool> quiet =
        quietSeconds(open, 0.25, counts, kTailSamples);
    std::vector<double> pool;
    for (std::size_t i = 0; i < seconds.size(); ++i)
        if (quiet[i])
            pool.insert(pool.end(), seconds[i].begin(), seconds[i].end());
    return QuietLatency{percentile(pool, 0.5), percentile(pool, 0.99),
                        pool.size()};
}

/** Closed-loop docs/s over the least-stolen three quarters of its
 *  seconds: throughput over whole seconds suffers less from a stall
 *  than the tail latency does. */
double
quietThroughput(const Phase &closed)
{
    std::vector<std::size_t> docs(closed.steal.size(), 0);
    for (const ConnectionLog &log : closed.logs)
        for (const auto &[at, count] : log.completions) {
            const auto second = static_cast<std::size_t>(
                millisBetween(closed.start, at) / 1e3);
            if (second < docs.size())
                docs[second] += count;
        }
    const std::vector<bool> quiet = quietSeconds(
        closed, 0.75, std::vector<std::size_t>(docs.size(), 1), 1);
    double total = 0.0;
    double seconds = 0.0;
    for (std::size_t i = 0; i < docs.size(); ++i)
        if (quiet[i]) {
            total += static_cast<double>(docs[i]);
            seconds += 1.0;
        }
    return seconds > 0.0 ? total / seconds : 0.0;
}

Result
measure(const Context &ctx)
{
    Result result;
    std::vector<double> setups;
    std::unique_ptr<Daemon> daemon;
    for (int i = 0; i < kSetups; ++i) {
        daemon.reset(); // stop the previous set-up's daemon first.
        double seconds = 0.0;
        daemon = setUp(ctx, i, seconds);
        setups.push_back(seconds);
    }
    const std::uint16_t port = daemon->port();

    const EngineCounters before = engineCounters(port);
    const double openSeconds = ctx.seconds * kOpenShare;
    const Clock::time_point start = Clock::now();
    const Clock::time_point openEnd = start + secondsFrom(openSeconds);
    const Phase open =
        runPhase(0, start, openEnd, [&](unsigned slice) {
            return openLoop(ctx, port, slice, start, openEnd, false);
        });
    const Clock::time_point closedStart = Clock::now();
    const Clock::time_point closedEnd =
        closedStart + secondsFrom(ctx.seconds - openSeconds);
    const Phase closed =
        runPhase(kConnections, closedStart, closedEnd, [&](unsigned slice) {
            return closedLoop(ctx, port, slice, closedEnd);
        });
    const EngineCounters after = engineCounters(port);
    const double rss = daemon->peakRssMib();

    result.absorb(open.logs);
    result.absorb(closed.logs);
    const QuietLatency latency = quietLatency(open);
    const double ratio = hitRatio(ctx, before, after, result);
    const double lag = lagP99(open.logs, result);

    std::vector<ConnectionLog> sampled = open.logs;
    sampled.insert(sampled.end(), closed.logs.begin(), closed.logs.end());
    checkSample(ctx, port, sampled, result);
    daemon.reset();

    result.add("setup_s", percentile(setups, 0.5), "s");
    result.add("p50_ms", latency.p50, "ms");
    result.add("p99_ms", latency.p99, "ms");
    result.add("docs_per_s", quietThroughput(closed), "docs/s");
    result.add("success_ratio",
               result.attempted == 0
                   ? 0.0
                   : 1.0 - static_cast<double>(result.failed) /
                               static_cast<double>(result.attempted),
               "ratio");
    result.add("rss_mb", rss, "MiB");
    std::cerr << "hmbench: " << ctx.workload->name << " seed=" << ctx.seed
              << " open-loop latencies pooled=" << latency.pooled
              << " hit_ratio=" << ratio << " gen.lag_p99_ms=" << lag
              << "\n";
    return result;
}

/** Daemon-side engine.queue spans of the traced requests. */
struct QueueSpans
{
    std::vector<double> waits; ///< ms, one per engine.queue span.
    double waitedTotal = 0.0;  ///< ms a request had a line queued.
    double rootTotal = 0.0;    ///< ms, summed server.request spans.
};

QueueSpans
fetchQueueSpans(std::uint16_t port, const std::vector<ConnectionLog> &logs)
{
    QueueSpans out;
    server::HttpClient client("127.0.0.1", port);
    for (const ConnectionLog &log : logs) {
        const std::size_t first =
            log.traceIds.size() > kTracesPerConnection
                ? log.traceIds.size() - kTracesPerConnection
                : 0;
        for (std::size_t i = first; i < log.traceIds.size(); ++i) {
            const auto response =
                client.roundTrip("GET", "/v1/trace/" + log.traceIds[i]);
            if (response.status != 200)
                continue; // aged out of the daemon's ring.
            // A batch queues its lines side by side: the request waited
            // for the union of their intervals, not their sum.
            std::vector<std::pair<double, double>> queued;
            const std::string &body = response.body;
            for (std::size_t at = body.find("{\"name\":");
                 at != std::string::npos;
                 at = body.find("{\"name\":", at + 1)) {
                const std::string_view span(
                    body.data() + at, body.find('}', at) - at + 1);
                const auto name = server::json::findString(span, "name");
                const auto start = server::json::findNumber(span, "start_ms");
                const auto ms = server::json::findNumber(span, "duration_ms");
                if (!name || !start || !ms)
                    continue;
                if (*name == "engine.queue") {
                    out.waits.push_back(*ms);
                    queued.emplace_back(*start, *start + *ms);
                } else if (*name == "server.request") {
                    out.rootTotal += *ms;
                }
            }
            std::sort(queued.begin(), queued.end());
            double reach = 0.0;
            for (const auto &[from, to] : queued) {
                out.waitedTotal += std::max(0.0, to - std::max(from, reach));
                reach = std::max(reach, to);
            }
        }
    }
    return out;
}

/** The layers reported by the traced run, with their units. */
const std::vector<std::pair<std::string, std::string>> &
layerNames()
{
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"server.http_parse", "us"}, {"wire.decode", "us"},
        {"server.expand", "us"},     {"engine.manifest", "us"},
        {"engine.fingerprint", "us"}, {"engine.cache", "us"},
        {"core.characterize", "ms"}, {"som.train", "ms"},
        {"som.map", "ms"},           {"cluster.agglomerate", "ms"},
        {"cluster.sweep", "ms"},     {"scoring.report", "ms"},
        {"store.record_score", "ms"}, {"wire.encode", "us"},
        {"server.encode", "us"}};
    return names;
}

void
addLayer(Result &result, const std::string &name, const std::string &unit,
         std::size_t calls, double p50Millis, double share)
{
    const double scale = unit == "us" ? 1e3 : 1.0;
    result.add(name + "_" + unit, p50Millis * scale, unit);
    result.add(name + "_" + unit + "_calls", static_cast<double>(calls),
               "count");
    result.add(name + "_" + unit + "_share", share, "ratio");
}

Result
traceRun(const Context &ctx)
{
    Result result;
    double setupSeconds = 0.0;
    std::vector<ConnectionLog> warmed;
    std::unique_ptr<Daemon> daemon =
        setUp(ctx, 0, setupSeconds, &warmed);
    const std::uint16_t port = daemon->port();
    // Read the warm-up's traces before newer ones push them out.
    const QueueSpans warmQueue = fetchQueueSpans(port, warmed);

    const EngineCounters before = engineCounters(port);
    const Clock::time_point start = Clock::now();
    const Clock::time_point end = start + secondsFrom(ctx.seconds / 2);
    const Phase phase = runPhase(0, start, end, [&](unsigned slice) {
        return openLoop(ctx, port, slice, start, end, true);
    });
    const std::vector<ConnectionLog> &open = phase.logs;
    const EngineCounters after = engineCounters(port);
    result.absorb(open);
    const double ratio = hitRatio(ctx, before, after, result);
    const double lag = lagP99(open, result);
    const QueueSpans queue = fetchQueueSpans(port, open);
    checkSample(ctx, port, open, result);
    daemon.reset();

    // Replay the traced requests in process for the other half.
    LayerReplay replay(ctx.suite, *ctx.workload, ctx.runDir + "/replay");
    SpanLog warm;
    if (ctx.workload->repeatKeys)
        for (const Request &key : keyRequests(*ctx.workload, ctx.seed))
            replay.replay(key, warm, 0);
    SpanLog log;
    const Clock::time_point replayEnd =
        Clock::now() + secondsFrom(ctx.seconds / 2);
    std::size_t replayed = 0;
    std::size_t diverged = 0;
    for (std::size_t i = 0; Clock::now() < replayEnd; ++i) {
        const ConnectionLog &from = open[i % kConnections];
        const std::size_t at = i / kConnections;
        if (at >= from.answers.size())
            break;
        const Answer &answer = from.answers[at];
        const auto docs = replay.replay(answer.request, log, replayed++);
        if (!sameDocuments(docs, decodeAnswer(answer.request, answer.body)))
            ++diverged;
    }
    log.write(ctx.runDir + "/spans.jsonl");
    if (diverged > 0)
        result.invalid(std::to_string(diverged) +
                       " replayed requests answered differently from the "
                       "daemon");
    result.attempted += replayed;
    result.failed += diverged;

    // Calls and shares count the measured requests only. A layer they
    // never reach (the pipeline on hit_mix) reports the cost of one
    // call as the warm-up measured it, so that no time reads 0.
    double rootTotal = 0.0;
    double warmTotal = 0.0;
    const std::map<std::string, LayerStat> stats =
        layerStats(log, "request", rootTotal);
    const std::map<std::string, LayerStat> warmStats =
        layerStats(warm, "request", warmTotal);
    for (const auto &[name, unit] : layerNames()) {
        const auto it = stats.find(name);
        const LayerStat stat = it == stats.end() ? LayerStat{} : it->second;
        const auto before = warmStats.find(name);
        const double p50 = stat.calls > 0 || before == warmStats.end()
                               ? stat.selfP50Millis
                               : before->second.selfP50Millis;
        addLayer(result, name, unit, stat.calls, p50,
                 rootTotal > 0.0 ? stat.selfTotalMillis / rootTotal : 0.0);
    }
    addLayer(result, "engine.queue_wait", "ms", queue.waits.size(),
             percentile(queue.waits.empty() ? warmQueue.waits : queue.waits,
                        0.5),
             queue.rootTotal > 0.0 ? queue.waitedTotal / queue.rootTotal
                                   : 0.0);
    result.add("engine.hit_ratio", ratio, "ratio");
    result.add("gen.lag_p99_ms", lag, "ms");
    result.add("traced.p50_ms", quietLatency(phase).p50, "ms");
    std::cerr << "hmbench: traced " << ctx.workload->name
              << " replayed=" << replayed << " spans=" << log.spans().size()
              << " queue spans=" << queue.waits.size() << "\n";
    return result;
}

int
run(const util::CommandLine &cl)
{
    Context ctx;
    ctx.workload = &workloadByName(cl.getString("workload", ""));
    ctx.seed = static_cast<std::uint64_t>(cl.getInt("seed", 1));
    ctx.seconds = cl.getDouble("seconds", 10.0);
    ctx.traced = cl.getInt("trace", 0) != 0;
    ctx.hmserved = cl.getString("hmserved", "");
    ctx.runDir = cl.getString("run-dir", "");
    HM_REQUIRE(!ctx.hmserved.empty() && !ctx.runDir.empty(),
               "--hmserved and --run-dir are required");
    HM_REQUIRE(ctx.seconds > 0.0, "--seconds must be positive");
    net::ignoreSigpipe();
    std::filesystem::create_directories(ctx.runDir);
    ctx.suite = prepareSuite(*ctx.workload, ctx.seed, ctx.runDir + "/suite");

    const Result result = ctx.traced ? traceRun(ctx) : measure(ctx);
    for (const std::string &problem : result.problems)
        std::cerr << "hmbench: INVALID: " << problem << "\n";
    std::cout << result.json() << std::endl;
    return result.correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(
            hiermeans::util::CommandLine::parse(argc, argv));
    } catch (const std::exception &e) {
        std::cerr << "hmbench: " << e.what() << "\n";
        return 2;
    }
}
