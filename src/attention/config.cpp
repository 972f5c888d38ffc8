#include "attention/config.hpp"

#include <algorithm>
#include <sstream>

#include "attention/post_scoring.hpp"
#include "util/logging.hpp"

namespace a3 {

std::size_t
ApproxConfig::iterationsFor(std::size_t n) const
{
    a3Assert(n > 0, "iterationsFor needs a non-empty task");
    if (mAbsolute > 0)
        return std::min(mAbsolute, n);
    a3Assert(mFraction > 0.0, "mFraction must be positive");
    // Clamp in double: a fraction whose product overflows size_t
    // would make the cast undefined.
    const double m = std::clamp(mFraction * static_cast<double>(n),
                                1.0, static_cast<double>(n));
    return static_cast<std::size_t>(m);
}

double
ApproxConfig::scoreGap() const
{
    return thresholdFromPercent(thresholdPercent);
}

std::string
ApproxConfig::str() const
{
    std::ostringstream os;
    os << "ApproxConfig{";
    if (!candidateSelection) {
        os << "M=off";
    } else if (mAbsolute > 0) {
        os << "M=" << mAbsolute;
    } else {
        os << "M=" << mFraction << "n";
    }
    os << ", ";
    if (postScoring)
        os << "T=" << thresholdPercent << "%";
    else
        os << "T=off";
    os << "}";
    return os.str();
}

ApproxConfig
ApproxConfig::conservative()
{
    ApproxConfig cfg;
    cfg.mFraction = 0.5;
    cfg.thresholdPercent = 5.0;
    return cfg;
}

ApproxConfig
ApproxConfig::aggressive()
{
    ApproxConfig cfg;
    cfg.mFraction = 0.125;
    cfg.thresholdPercent = 10.0;
    return cfg;
}

ApproxConfig
ApproxConfig::exact()
{
    ApproxConfig cfg;
    cfg.candidateSelection = false;
    cfg.postScoring = false;
    return cfg;
}

}  // namespace a3
