/**
 * @file
 * Machine facts for every run's validity record: CPU model, online
 * CPUs, the SIMD kernel table in use, CPU steal time, and peak RSS.
 */

#ifndef SERVEBENCH_SYSINFO_HPP
#define SERVEBENCH_SYSINFO_HPP

#include <cstdint>
#include <string>

namespace servebench {

/** Aggregate jiffies of the "cpu" line of /proc/stat. */
struct CpuTimes
{
    std::uint64_t total = 0;
    std::uint64_t steal = 0;
    bool valid = false;
};

CpuTimes readCpuTimes();

/** Steal jiffies over all jiffies between two readings; 0 when
 *  either reading failed. */
double stealShare(const CpuTimes &before, const CpuTimes &after);

std::string cpuModel();
unsigned onlineCpus();
std::string kernelTable();
std::string osRelease();

/** Peak resident set of this process, MiB. */
double peakRssMb();

}  // namespace servebench

#endif  // SERVEBENCH_SYSINFO_HPP
