#include "util/stats.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "util/logging.hpp"

namespace a3 {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
sleepSeconds(double seconds)
{
    if (seconds > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(seconds));
}

void
RunningStat::add(double sample)
{
    ++count_;
    sum_ += sample;
    const double delta = sample - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (sample - mean_);
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
}

double
RunningStat::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double total = static_cast<double>(count_ + other.count_);
    const double delta = other.mean_ - mean_;
    m2_ += other.m2_ + delta * delta *
           static_cast<double>(count_) * static_cast<double>(other.count_) /
           total;
    mean_ = (mean_ * static_cast<double>(count_) +
             other.mean_ * static_cast<double>(other.count_)) / total;
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
RunningStat::clear()
{
    *this = RunningStat();
}

LatencyReservoir::LatencyReservoir(std::size_t capacity)
    : capacity_(capacity)
{
    a3Assert(capacity > 0, "reservoir needs a positive capacity");
    samples_.reserve(capacity);
}

LatencyReservoir::LatencyReservoir(const LatencyReservoir &other)
{
    const std::lock_guard<std::mutex> lock(other.mutex_);
    capacity_ = other.capacity_;
    samples_ = other.samples_;
    next_ = other.next_;
    size_ = other.size_;
    count_ = other.count_;
}

LatencyReservoir &
LatencyReservoir::operator=(const LatencyReservoir &other)
{
    if (this == &other)
        return *this;
    // Lock both sides in a fixed address order so two threads
    // assigning reservoirs to each other cannot deadlock.
    std::mutex *first = &mutex_ < &other.mutex_ ? &mutex_
                                                : &other.mutex_;
    std::mutex *second = first == &mutex_ ? &other.mutex_ : &mutex_;
    const std::lock_guard<std::mutex> lockFirst(*first);
    const std::lock_guard<std::mutex> lockSecond(*second);
    capacity_ = other.capacity_;
    samples_ = other.samples_;
    next_ = other.next_;
    size_ = other.size_;
    count_ = other.count_;
    return *this;
}

void
LatencyReservoir::add(double sample)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (size_ < capacity_) {
        samples_.push_back(sample);
        ++size_;
    } else {
        samples_[next_] = sample;
    }
    next_ = (next_ + 1) % capacity_;
    ++count_;
}

std::size_t
LatencyReservoir::size() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return size_;
}

std::uint64_t
LatencyReservoir::count() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return count_;
}

double
LatencyReservoir::percentile(double fraction) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (size_ == 0)
        return 0.0;
    return a3::percentile(samples_, fraction);
}

void
LatencyReservoir::percentiles(const double *fractions,
                              std::size_t count, double *out) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (size_ == 0) {
        std::fill(out, out + count, 0.0);
        return;
    }
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < count; ++i)
        out[i] = percentileSorted(sorted, fractions[i]);
}

void
LatencyReservoir::clear()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    samples_.clear();
    next_ = 0;
    size_ = 0;
    count_ = 0;
}

double
percentile(std::vector<double> samples, double fraction)
{
    std::sort(samples.begin(), samples.end());
    return percentileSorted(samples, fraction);
}

double
percentileSorted(const std::vector<double> &sorted, double fraction)
{
    a3Assert(!sorted.empty(), "percentile of empty sample set");
    a3Assert(fraction >= 0.0 && fraction <= 1.0,
             "percentile fraction must lie in [0, 1]");
    const double rank = fraction * static_cast<double>(sorted.size() - 1);
    const auto below = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(below);
    if (below + 1 >= sorted.size())
        return sorted.back();
    return sorted[below] * (1.0 - frac) + sorted[below + 1] * frac;
}

}  // namespace a3
