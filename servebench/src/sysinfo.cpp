#include "sysinfo.hpp"

#include <fstream>
#include <sstream>
#include <thread>

#include <sys/resource.h>
#include <sys/utsname.h>

#include "kernels/kernels.hpp"

namespace servebench {

CpuTimes
readCpuTimes()
{
    CpuTimes times;
    std::ifstream in("/proc/stat");
    std::string label;
    if (!(in >> label) || label != "cpu")
        return times;
    // user nice system idle iowait irq softirq steal; guest time is
    // already counted in user.
    for (int field = 0; field < 8; ++field) {
        std::uint64_t value = 0;
        if (!(in >> value))
            return times;
        times.total += value;
        if (field == 7)
            times.steal = value;
    }
    times.valid = true;
    return times;
}

double
stealShare(const CpuTimes &before, const CpuTimes &after)
{
    if (!before.valid || !after.valid || after.total <= before.total)
        return 0.0;
    return static_cast<double>(after.steal - before.steal) /
           static_cast<double>(after.total - before.total);
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos && colon + 2 <= line.size())
            return line.substr(colon + 2);
    }
    return "unknown";
}

unsigned
onlineCpus()
{
    return std::thread::hardware_concurrency();
}

std::string
kernelTable()
{
    return a3::kernelIsaName(a3::activeKernels().isa);
}

std::string
osRelease()
{
    utsname name{};
    if (uname(&name) != 0)
        return "unknown";
    return name.release;
}

double
peakRssMb()
{
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace servebench
