#include "base_workload.hh"

#include "util/logging.hh"

namespace osp
{

BaseWorkload::BaseWorkload(std::string name, SyntheticKernel &kern,
                           std::uint64_t seed, std::uint64_t stream)
    : kernel(&kern), gen(seed, stream), rng(seed, stream ^ 0xAAAAULL),
      name_(std::move(name))
{
}

void
BaseWorkload::rebind(KernelIface *k)
{
    kernel = dynamic_cast<SyntheticKernel *>(k);
    if (!kernel)
        osp_panic(name_, ": a copy must run on a SyntheticKernel");
}

UserProgram::Step
BaseWorkload::step(MicroOp &op, ServiceRequest &req)
{
    // A phase transition may legitimately return Continue without
    // queueing instructions; the bound catches state machines that
    // livelock.
    for (int spins = 0; spins < 10000; ++spins) {
        if (!gen.done()) {
            op = gen.next();
            return Step::Op;
        }
        switch (advance(req)) {
          case Advance::Syscall:
            return Step::Syscall;
          case Advance::Done:
            return Step::Done;
          case Advance::Continue:
            break;
        }
    }
    osp_panic(name_, ": advance() looped without making progress");
}

} // namespace osp
