#include "service_types.hh"

#include "util/logging.hh"

namespace osp
{

const char *
serviceName(ServiceType type)
{
    switch (type) {
      case ServiceType::SysRead: return "sys_read";
      case ServiceType::SysWrite: return "sys_write";
      case ServiceType::SysOpen: return "sys_open";
      case ServiceType::SysClose: return "sys_close";
      case ServiceType::SysPoll: return "sys_poll";
      case ServiceType::SysSocketcall: return "sys_socketcall";
      case ServiceType::SysStat64: return "sys_stat64";
      case ServiceType::SysWritev: return "sys_writev";
      case ServiceType::SysFcntl64: return "sys_fcntl64";
      case ServiceType::SysIpc: return "sys_ipc";
      case ServiceType::SysGettimeofday: return "sys_gettimeofday";
      case ServiceType::SysBrk: return "sys_brk";
      case ServiceType::IntPageFault: return "Int_14";
      case ServiceType::IntDisk: return "Int_49";
      case ServiceType::IntNic: return "Int_121";
      case ServiceType::IntTimer: return "Int_239";
      case ServiceType::NumTypes: break;
    }
    osp_panic("serviceName: invalid service type ",
              static_cast<int>(type));
}

} // namespace osp
