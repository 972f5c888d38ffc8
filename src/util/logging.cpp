#include "util/logging.hpp"

#include <cstdio>

namespace a3 {

namespace detail {

void
emit(const char *tag, const std::string &message)
{
    std::fprintf(stderr, "[a3:%s] %s\n", tag, message.c_str());
}

}  // namespace detail

}  // namespace a3
