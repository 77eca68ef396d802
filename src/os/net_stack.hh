/**
 * @file
 * A minimal in-kernel network stack: sockets, transmit backlog and
 * an sk_buff pool.
 *
 * Transmit work queued by sys_write / sys_writev / sys_socketcall is
 * drained later by the NIC interrupt handler (Int_121); the number
 * of packets pending when the interrupt fires determines how much
 * work the handler does, which is exactly the kind of
 * environment-dependent behaviour variation the paper observes for
 * interrupt services.
 */

#ifndef OSP_OS_NET_STACK_HH
#define OSP_OS_NET_STACK_HH

#include <cstdint>
#include <vector>

#include "sim/code_profile.hh"
#include "util/types.hh"

namespace osp
{

/** See file comment. */
class NetStack
{
  public:
    /**
     * @param buffer_area region holding all socket buffers and the
     *                    sk_buff pool
     * @param max_sockets socket-table size
     */
    NetStack(Region buffer_area, std::uint32_t max_sockets = 16);

    /** Allocate a socket; returns its id. */
    std::uint32_t openSocket();

    /** Release a socket (pending tx is dropped). */
    void closeSocket(std::uint32_t sock);

    /** Queue @p bytes for transmission; returns queued packets
     *  (1448-byte MSS segments). */
    std::uint32_t queueTx(std::uint32_t sock, std::uint64_t bytes);

    /** Make @p bytes available for reception on @p sock. */
    void deliverRx(std::uint32_t sock, std::uint64_t bytes);

    /** Consume up to @p max_bytes of received data; returns the
     *  number of bytes actually taken. */
    std::uint64_t takeRx(std::uint32_t sock, std::uint64_t max_bytes);

    /** Received bytes waiting on @p sock. */
    std::uint64_t rxAvailable(std::uint32_t sock) const;

    /**
     * Drain up to @p max_packets from the global transmit backlog
     * (NIC handler); returns the number of packets sent.
     */
    std::uint32_t drainTx(std::uint32_t max_packets);

    /** Packets waiting in the transmit backlog. */
    std::uint32_t pendingTxPackets() const { return txBacklog; }

    /** Buffer region of one socket (for handler data accesses). */
    Region socketBuffer(std::uint32_t sock) const;

    /** The shared sk_buff pool region (hot on every tx/rx path). */
    Region skbPool() const { return skbPool_; }

  private:
    struct Socket
    {
        bool open = false;
        std::uint64_t rxAvail = 0;
    };

    std::vector<Socket> sockets;
    std::uint32_t txBacklog = 0;
    Region area;
    Region skbPool_;
    std::uint64_t perSocketBytes = 0;
};

} // namespace osp

#endif // OSP_OS_NET_STACK_HH
