/**
 * @file
 * The body of a scheduled event: a move-only nullary callable that keeps
 * its closure inline.
 *
 * Every event the simulator schedules and every memory completion it
 * parks is a small closure — `[this]`, `[this, slot]`, or a message
 * plus a tick or two. std::function keeps only 16 bytes inline, so a
 * message-carrying closure would cost a heap allocation and a free per
 * event. EventFn keeps up to inlineBytes of closure state inside itself
 * and has no heap fallback: a larger closure is a compile-time error,
 * which keeps the event path allocation-free by construction.
 *
 * Closures that are trivially copyable (all of the simulator's) move by
 * a plain byte copy and need no destructor call; the others (tests that
 * capture a std::function, say) go through a per-type manager.
 */

#ifndef NOVA_SIM_EVENT_FN_HH
#define NOVA_SIM_EVENT_FN_HH

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace nova::sim
{

/** A move-only `void()` callable with inline closure storage. */
class EventFn
{
  public:
    /**
     * Closure bytes kept inline: the largest closure in the tree is the
     * sharded fabric's `[this, g, msg, inject]` (and Network's
     * retransmission `[this, copy, inject_tick, attempt]`), 48 bytes.
     */
    static constexpr std::size_t inlineBytes = 48;

    EventFn() = default;

    /** Wrap any callable `f()` whose closure fits inline. */
    template <class F, class D = std::decay_t<F>,
              class = std::enable_if_t<!std::is_same_v<D, EventFn>>>
    EventFn(F &&f) // NOLINT(google-explicit-constructor): closures convert
    {
        construct(std::forward<F>(f));
    }

    EventFn(EventFn &&o) noexcept { takeFrom(o); }

    EventFn &
    operator=(EventFn &&o) noexcept
    {
        if (this != &o) {
            reset();
            takeFrom(o);
        }
        return *this;
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn() { reset(); }

    /** True when a callable is held. */
    explicit operator bool() const { return call != nullptr; }

    /** Invoke the held callable. @pre bool(*this). */
    void operator()() { call(buf); }

    /** Destroy the held callable, leaving this empty. */
    void
    reset()
    {
        if (manage)
            manage(Op::Destroy, buf, nullptr);
        call = nullptr;
        manage = nullptr;
    }

    /**
     * Build the callable directly in this (empty) object: the event
     * queue constructs each event's closure in its final slot this way.
     * An EventFn argument is moved in instead.
     */
    template <class F>
    void
    emplace(F &&f)
    {
        reset();
        if constexpr (std::is_same_v<std::decay_t<F>, EventFn>)
            takeFrom(f);
        else
            construct(std::forward<F>(f));
    }

  private:
    enum class Op
    {
        Relocate,
        Destroy,
    };
    using Invoke = void (*)(void *);
    using Manage = void (*)(Op, void *dst, void *src);

    template <class D>
    static D *
    as(void *p)
    {
        return std::launder(static_cast<D *>(p));
    }

    template <class F>
    void
    construct(F &&f)
    {
        using D = std::decay_t<F>;
        static_assert(sizeof(D) <= inlineBytes,
                      "event closure exceeds EventFn::inlineBytes: capture "
                      "an index or a pointer instead of a large object");
        static_assert(alignof(D) <= alignof(std::max_align_t),
                      "over-aligned event closure");
        static_assert(std::is_nothrow_move_constructible_v<D>,
                      "event closures must be nothrow-movable");
        std::construct_at(static_cast<D *>(static_cast<void *>(buf)),
                          std::forward<F>(f));
        call = [](void *p) { (*as<D>(p))(); };
        if constexpr (!std::is_trivially_copyable_v<D>) {
            manage = [](Op op, void *dst, void *src) {
                if (op == Op::Relocate) {
                    std::construct_at(static_cast<D *>(dst),
                                      std::move(*as<D>(src)));
                    std::destroy_at(as<D>(src));
                } else {
                    std::destroy_at(as<D>(dst));
                }
            };
        }
    }

    /** Move `o`'s callable into this (empty) object; `o` ends empty. */
    void
    takeFrom(EventFn &o) noexcept
    {
        if (o.manage)
            o.manage(Op::Relocate, buf, o.buf);
        else if (o.call)
            std::memcpy(buf, o.buf, inlineBytes);
        call = o.call;
        manage = o.manage;
        o.call = nullptr;
        o.manage = nullptr;
    }

    alignas(std::max_align_t) unsigned char buf[inlineBytes];
    Invoke call = nullptr;
    Manage manage = nullptr;
};

} // namespace nova::sim

#endif // NOVA_SIM_EVENT_FN_HH
