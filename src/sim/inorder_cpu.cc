#include "inorder_cpu.hh"

namespace osp
{

InOrderCpu::InOrderCpu(const CpuParams &p, MemoryHierarchy *hierarchy,
                       GshareBp *predictor)
    : params(p), hier(hierarchy), bp(predictor)
{
    storeBusyUntil.assign(
        std::max<std::uint32_t>(params.mshrs, 1), 0);
}

Cycles
InOrderCpu::drain()
{
    Cycles cycles = now_ - intervalStart;
    intervalStart = now_;
    return cycles;
}

} // namespace osp
