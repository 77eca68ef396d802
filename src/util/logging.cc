#include "logging.hh"

#include <cstdlib>

namespace osp
{

namespace
{
LogLevel globalLevel = LogLevel::Warn;
} // namespace

void
setLogLevel(LogLevel level)
{
    globalLevel = level;
}

namespace detail
{

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n  at %s:%d\n", msg.c_str(), file,
                 line);
    std::fflush(stderr);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n  at %s:%d\n", msg.c_str(), file,
                 line);
    std::fflush(stderr);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    if (globalLevel == LogLevel::Warn)
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace detail

} // namespace osp
