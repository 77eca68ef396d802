/**
 * @file
 * Status and error reporting in the gem5 style.
 *
 * panic()  - an internal invariant was violated (a simulator bug);
 *            aborts so a debugger/core dump can inspect the state.
 * fatal()  - the simulation cannot continue due to a user error
 *            (bad configuration, invalid arguments); exits with 1.
 * warn()   - something works well enough but may explain odd
 *            behaviour observed later.
 */

#ifndef OSP_UTIL_LOGGING_HH
#define OSP_UTIL_LOGGING_HH

#include <cstdio>
#include <sstream>
#include <string>

namespace osp
{

/** Verbosity levels accepted by setLogLevel(). */
enum class LogLevel
{
    Silent = 0,  //!< suppress warn()
    Warn = 1,    //!< show warn() (the default)
};

/** Set the global verbosity for warn(). panic()/fatal() always
 *  print. */
void setLogLevel(LogLevel level);

namespace detail
{

/** Concatenate a parameter pack into one string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);

} // namespace detail

/** Report an internal simulator bug and abort. */
#define osp_panic(...) \
    ::osp::detail::panicImpl(__FILE__, __LINE__, \
                             ::osp::detail::concat(__VA_ARGS__))

/** Report an unrecoverable user error and exit(1). */
#define osp_fatal(...) \
    ::osp::detail::fatalImpl(__FILE__, __LINE__, \
                             ::osp::detail::concat(__VA_ARGS__))

/** Warn about behaviour that might be surprising but is survivable. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

} // namespace osp

#endif // OSP_UTIL_LOGGING_HH
