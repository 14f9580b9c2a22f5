#ifndef URBANE_PERFBENCH_WORKLOAD_H_
#define URBANE_PERFBENCH_WORKLOAD_H_

// Request sequences of the end-to-end benchmark. Everything here is a pure
// function of the seed (no data, no clocks), so the same seed renders a
// byte-identical request sequence on every machine and the unit tests can
// pin that.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace urbane::perfbench {

enum class Workload { kExplore, kSelective, kSaturate, kIngestLive };

/// "explore" | "selective" | "saturate" | "ingest_live"; false on others.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload workload);

/// Names the program sees. The benchmark registers the trips under
/// kPointsName and the neighborhoods under kRegionsName.
inline constexpr char kPointsName[] = "trips";
inline constexpr char kRegionsName[] = "hoods";

/// January 2009, the month the taxi generator covers.
inline constexpr std::int64_t kMonthStart = 1230768000;
inline constexpr std::int64_t kHour = 3600;
inline constexpr std::int64_t kDay = 24 * kHour;
inline constexpr std::int64_t kMonthDays = 31;
/// ingest_live: days [1, kLiveFirstDay) form the base store, the rest of
/// the month streams in.
inline constexpr std::int64_t kLiveFirstDay = 25;

/// One query frame: the statement and the executor the client asks for
/// ("raster", "accurate", "auto", ...).
struct Frame {
  std::string sql;
  std::string method;
};

/// The /v1/query body for a frame.
std::string QueryBody(const Frame& frame);

/// Share of frames whose (sql, method) already appeared earlier in the
/// sequence — the frames an unbounded result cache answers.
double RepeatShare(const std::vector<Frame>& frames);

/// explore: one analyst with the app::GenerateInteractionTrace event mix,
/// drawn in stratified questions of 21 events — 1-15 day brushes snapped
/// to whole hours, fare filters on slider stops, the next of COUNT / AVG /
/// SUM at each question, and pans that re-issue the current query. Raster.
std::vector<Frame> ExploreTrace(std::uint64_t seed, std::size_t count);

/// selective: 1-24 h brushes with tight fare and distance ranges; every
/// frame is a distinct statement. Accurate.
std::vector<Frame> SelectiveTrace(std::uint64_t seed, std::size_t count);

/// saturate: `clients` independent wide-brush traces; no statement occurs
/// twice within or across traces. Planner-chosen ("auto").
std::vector<std::vector<Frame>> SaturateTraces(std::uint64_t seed, int clients,
                                               std::size_t per_client);

/// ingest_live: what the single client does after each appended batch.
struct LiveStep {
  /// Frames to send after appending batch `batch` (in order).
  std::vector<Frame> frames;
  /// Flush after this batch (and, when `compact`, compact after the
  /// flush and run the stop-the-world COUNT check).
  bool flush = false;
  bool compact = false;
};

struct LiveSchedule {
  std::size_t batch_rows = 0;
  std::vector<LiveStep> steps;  // one per batch
};

/// Schedule for streaming fixed-size batches, one step per entry of
/// `head_times` (the newest timestamp of each batch). After each append:
/// one brush over the live head (the head's hour and up to five hours
/// before it), one over a closed base-day range drawn from a small pool
/// (revisits hit the cache across appends), and one over a random closed
/// range of 1-3 days ending before the head's day. Flush every
/// `flush_every` batches, compact every `compact_every`-th flush. Accurate.
LiveSchedule IngestLiveSchedule(std::uint64_t seed,
                                const std::vector<std::int64_t>& head_times,
                                std::size_t batch_rows,
                                std::size_t flush_every,
                                std::size_t compact_every);

/// The statement the ingest_live client checks after each compaction.
Frame LiveCountCheck();

/// A statement outside every workload's sequence (no time filter), used
/// to warm each executor during set-up without seeding the result cache
/// with a frame the measured phase will send.
Frame WarmupFrame(const std::string& method);

}  // namespace urbane::perfbench

#endif  // URBANE_PERFBENCH_WORKLOAD_H_
