/**
 * @file
 * SPEC CPU2000-like compute workloads (gzip, vpr, art, swim).
 *
 * These are the right-hand bars of the paper's Figs. 1-2: programs
 * that practically never enter the kernel (a rare brk or
 * gettimeofday, timer ticks aside), for which application-only and
 * full-system simulation agree. Each variant reproduces the
 * qualitative micro-architectural character of its namesake:
 *
 *  - gzip: integer, moderately branchy, ~384KB hot window buffer;
 *  - vpr:  pointer-chasing over a ~1.5MB routing graph;
 *  - art:  FP streaming over a ~3MB working set (L2-hostile);
 *  - swim: FP streaming over a ~8MB grid (memory-bound).
 */

#ifndef OSP_WORKLOAD_SPEC_LIKE_HH
#define OSP_WORKLOAD_SPEC_LIKE_HH

#include <cstdint>
#include <string>

#include "base_workload.hh"

namespace osp
{

/** Which SPEC-like kernel to run. */
enum class SpecVariant
{
    Gzip,
    Vpr,
    Art,
    Swim,
};

/** SPEC-like parameters. */
struct SpecParams
{
    SpecVariant variant = SpecVariant::Gzip;
    /** User instructions skipped before measurement. */
    InstCount warmupOps = 200000;
    /** User instructions measured. */
    InstCount measureOps = 4000000;
    /** User instructions between rare kernel entries (0 = none). */
    InstCount syscallEvery = 1500000;
};

/** See file comment. */
class SpecWorkload : public BaseWorkload
{
  public:
    SpecWorkload(SyntheticKernel &kernel, const SpecParams &params,
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
    SpecParams params;
    CodeProfile prof;
    Region data;
    PatternKind pattern = PatternKind::Sequential;
    InstCount opsQueued = 0;
    InstCount sinceSyscall = 0;
    bool brkNext = true;
};

/** Variant name: "gzip" / "vpr" / "art" / "swim". */
const char *specVariantName(SpecVariant variant);

} // namespace osp

#endif // OSP_WORKLOAD_SPEC_LIKE_HH
