/**
 * @file
 * Streaming statistics accumulators used by the experiment harness,
 * and the monotonic clock their latency samples are read from.
 */

#ifndef A3_UTIL_STATS_HPP
#define A3_UTIL_STATS_HPP

#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <vector>

namespace a3 {

/**
 * Seconds on the monotonic steady clock, from an arbitrary epoch:
 * the one clock every deadline, timeout and latency sample in the
 * serving and network tiers reads.
 */
double nowSeconds();

/** Block the calling thread; a non-positive duration returns. */
void sleepSeconds(double seconds);

/**
 * Single-pass mean / variance / extrema accumulator (Welford's algorithm),
 * numerically stable for long runs of accuracy or cycle samples.
 */
class RunningStat
{
  public:
    /** Fold one sample into the accumulator. */
    void add(double sample);

    /** Number of samples seen so far. */
    std::size_t count() const { return count_; }

    /** Arithmetic mean; 0 when empty. */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Unbiased sample variance; 0 when fewer than two samples. */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Smallest sample; +inf when empty. */
    double min() const { return min_; }

    /** Largest sample; -inf when empty. */
    double max() const { return max_; }

    /** Sum of all samples. */
    double sum() const { return sum_; }

    /** Merge another accumulator into this one (parallel reduction). */
    void merge(const RunningStat &other);

    /** Reset to the empty state. */
    void clear();

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** Exact percentile (linear interpolation) of a sample vector; sorts a copy. */
double percentile(std::vector<double> samples, double fraction);

/** percentile() over an already-sorted ascending sample vector —
 *  multi-quantile readers sort once and interpolate per fraction. */
double percentileSorted(const std::vector<double> &sorted,
                        double fraction);

/**
 * Fixed-capacity sliding window over the most recent samples — the
 * bounded store behind the serving tier's latency percentiles. add()
 * is O(1) and never allocates after construction, so a scheduler can
 * record every request without unbounded growth; once `capacity`
 * samples have been seen, each add() overwrites the oldest retained
 * sample (a deterministic last-N window, not randomized reservoir
 * sampling, so seeded runs reproduce identical tails). percentile()
 * reads the retained window through a3::percentile().
 *
 * Thread-safe: every member takes an internal lock, so recorders
 * (drain threads, heartbeat threads) and percentile readers (stats
 * snapshots) may run concurrently. A reader sees some consistent
 * window — each sample is recorded atomically, and copies (the
 * stats-snapshot path) lock the source.
 */
class LatencyReservoir
{
  public:
    /** @param capacity retained window size (> 0). */
    explicit LatencyReservoir(std::size_t capacity);

    LatencyReservoir(const LatencyReservoir &other);
    LatencyReservoir &operator=(const LatencyReservoir &other);

    /** Record one sample, evicting the oldest when full. */
    void add(double sample);

    /** Retained window size. */
    std::size_t capacity() const { return capacity_; }

    /** Samples currently retained (<= capacity). */
    std::size_t size() const;

    /** Total samples ever recorded, including evicted ones. */
    std::uint64_t count() const;

    /**
     * Exact percentile over the retained window (linear
     * interpolation); 0 when no samples have been recorded, so a
     * stats snapshot taken before any traffic is well-defined.
     */
    double percentile(double fraction) const;

    /**
     * Several percentiles over one sorted copy of the window:
     * out[i] = percentile(fractions[i]), but the window is copied
     * and sorted once instead of per fraction — what a stats
     * snapshot reading p50/p95/p99 under a lock wants. Zeros when
     * empty.
     */
    void percentiles(const double *fractions, std::size_t count,
                     double *out) const;

    /** Drop every retained sample and zero the total count. */
    void clear();

  private:
    mutable std::mutex mutex_;
    std::size_t capacity_ = 0;
    std::vector<double> samples_;
    /** Slot the next add() overwrites once the window is full. */
    std::size_t next_ = 0;
    std::size_t size_ = 0;
    std::uint64_t count_ = 0;
};

}  // namespace a3

#endif  // A3_UTIL_STATS_HPP
