/**
 * @file
 * Lightweight error reporting in the spirit of gem5's logging.hh.
 *
 * Two severities are provided, both printed to stderr:
 *  - fatal():  the run cannot continue because of a user error
 *              (bad configuration, invalid arguments); exits with code 1.
 *  - panic():  an internal invariant was violated (a library bug); aborts.
 * a3Assert() panics unless its condition holds.
 */

#ifndef A3_UTIL_LOGGING_HPP
#define A3_UTIL_LOGGING_HPP

#include <cstdlib>
#include <sstream>
#include <string>

namespace a3 {

namespace detail {

/** Write one "[a3:<tag>] <message>" line to stderr. */
void emit(const char *tag, const std::string &message);

/** Fold a parameter pack into a single string via ostringstream. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

}  // namespace detail

/**
 * Unrecoverable user error (bad inputs or configuration).
 * Prints the message and exits with status 1.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::emit("fatal",
                 detail::concat(std::forward<Args>(args)...));
    std::exit(1);
}

/**
 * Internal invariant violation (a bug in this library).
 * Prints the message and aborts so a core dump / debugger can take over.
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::emit("panic",
                 detail::concat(std::forward<Args>(args)...));
    std::abort();
}

/** panic() unless `cond` holds; usage: a3Assert(x > 0, "x was ", x). */
template <typename Cond, typename... Args>
void
a3Assert(const Cond &cond, Args &&...args)
{
    if (!cond)
        panic("assertion failed: ", std::forward<Args>(args)...);
}

}  // namespace a3

#endif  // A3_UTIL_LOGGING_HPP
