/**
 * @file
 * The Unix-tool workloads of Sec. 5.2: `du -h /usr` and
 * `find /usr -type f -exec od {} \;`.
 *
 * Both walk the synthetic VFS tree. du opens each directory, reads
 * its entries (getdents) and stat64s every file — almost pure
 * metadata traffic. find-od additionally opens each regular file,
 * reads it in 4KB chunks, formats an octal dump in user mode
 * (od's dominant user-time loop) and writes the formatted output,
 * which exercises the page-cache write path heavily.
 */

#ifndef OSP_WORKLOAD_UNIX_TOOLS_HH
#define OSP_WORKLOAD_UNIX_TOOLS_HH

#include <cstdint>

#include "base_workload.hh"

namespace osp
{

/** Parameters shared by du and find-od. */
struct UnixToolParams
{
    /** Directories walked before measurement starts. */
    std::uint32_t warmupDirs = 8;
    /** 0 = walk the whole tree. */
    std::uint32_t maxDirs = 0;
};

/** `du -h /usr`. */
class DuWorkload : public BaseWorkload
{
  public:
    DuWorkload(SyntheticKernel &kernel, const UnixToolParams &params,
               std::uint64_t seed);

    bool inWarmup() const override;
    std::unique_ptr<UserProgram>
    clone(KernelIface *kernel) const override
    {
        return cloneOnto(*this, kernel);
    }

  protected:
    Advance advance(ServiceRequest &req) override;

  private:
    enum class Phase
    {
        OpenDir,
        Getdents,
        CloseDir,
        StatFile,
        NextDir,
    };

    UnixToolParams params;
    CodeProfile appProf;
    std::uint32_t dirLimit;
    Phase phase = Phase::OpenDir;
    std::uint32_t curDir = 0;
    std::uint32_t curFile = 0;
    std::uint64_t dirFd = 0;
    std::uint32_t dirsDone = 0;
};

/** `find /usr -type f -exec od {} \;`. */
class FindOdWorkload : public BaseWorkload
{
  public:
    FindOdWorkload(SyntheticKernel &kernel,
                   const UnixToolParams &params, std::uint64_t seed);

    bool inWarmup() const override;
    std::unique_ptr<UserProgram>
    clone(KernelIface *kernel) const override
    {
        return cloneOnto(*this, kernel);
    }

  protected:
    Advance advance(ServiceRequest &req) override;

  private:
    enum class Phase
    {
        OpenOut,
        OpenDir,
        Getdents,
        CloseDir,
        StatFile,
        OpenFile,
        ReadChunk,
        FormatAndWrite,
        CloseFile,
        NextDir,
    };

    UnixToolParams params;
    CodeProfile appProf;
    CodeProfile odProf;
    std::uint32_t dirLimit;
    std::uint32_t outFileId = 0;
    Phase phase = Phase::OpenOut;
    std::uint32_t curDir = 0;
    std::uint32_t curFile = 0;
    std::uint64_t dirFd = 0;
    std::uint64_t fileFd = 0;
    std::uint64_t outFd = 0;
    std::uint64_t lastReadBytes = 0;
    std::uint32_t dirsDone = 0;
};

} // namespace osp

#endif // OSP_WORKLOAD_UNIX_TOOLS_HH
