#pragma once
// Source-level instrumentation macros — the LLVM-pass substitute.
//
// Usage in an instrumented translation unit:
//
//   #include "instrument/macros.hpp"
//   DP_FILE("c-ray");                 // once, at namespace scope
//   ...
//   DP_LOOP_BEGIN();                  // at loop entry
//   for (...) { DP_LOOP_ITER();       // at each iteration head
//     DP_READ(a[i]); x = a[i];        // before each instrumented load
//     DP_WRITE(b[i]); b[i] = x;       // before each instrumented store
//   }
//   DP_LOOP_END();                    // at loop exit
//
// When no profiler is attached every macro costs an out-of-line
// Runtime::instance() call, a relaxed load of the enabled flag and a
// predicted branch.  The identical binary provides the native baseline, the
// denominator of every slowdown, so that path must not change (runtime.hpp).
// Scalars held in registers by the compiler are deliberately not
// instrumented — the same accesses would not appear as IR loads/stores
// under -O2 in the paper's setup either.

#include "common/location.hpp"
#include "instrument/runtime.hpp"

/// Registers this translation unit's file name; defines the file id used by
/// all other macros.  Place once at namespace scope.
#define DP_FILE(name)                                          \
  namespace {                                                  \
  const std::uint32_t dp_file_id_ =                            \
      ::depprof::file_registry().intern(name);                 \
  }                                                            \
  static_assert(true, "require trailing semicolon")

#define DP_ACCESS_(lvalue, is_write)                                        \
  do {                                                                      \
    if (::depprof::Runtime::instance().enabled()) {                         \
      static const std::uint32_t dp_var_id_ =                               \
          ::depprof::var_registry().intern(#lvalue);                        \
      ::depprof::Runtime::instance().record(&(lvalue), sizeof(lvalue),      \
                                            dp_file_id_, __LINE__,          \
                                            dp_var_id_, (is_write));        \
    }                                                                       \
  } while (0)

/// Instrumented load of an lvalue (place immediately before the access).
#define DP_READ(lvalue) DP_ACCESS_(lvalue, false)

/// Instrumented store to an lvalue (place immediately before the access).
#define DP_WRITE(lvalue) DP_ACCESS_(lvalue, true)

/// Read-modify-write (e.g. `x += e`): one load followed by one store.
#define DP_UPDATE(lvalue) \
  do {                    \
    DP_READ(lvalue);      \
    DP_WRITE(lvalue);     \
  } while (0)

/// Instrumented access through a pointer with an explicit variable name.
#define DP_ACCESS_AT(ptr, size, var_name, is_write)                          \
  do {                                                                       \
    if (::depprof::Runtime::instance().enabled()) {                          \
      static const std::uint32_t dp_var_id_ =                                \
          ::depprof::var_registry().intern(var_name);                        \
      ::depprof::Runtime::instance().record((ptr), (size), dp_file_id_,      \
                                            __LINE__, dp_var_id_,            \
                                            (is_write));                     \
    }                                                                        \
  } while (0)

#define DP_READ_AT(ptr, size, var_name) DP_ACCESS_AT(ptr, size, var_name, false)
#define DP_WRITE_AT(ptr, size, var_name) DP_ACCESS_AT(ptr, size, var_name, true)

/// Variable-lifetime event (Sec. III-B): the range [ptr, ptr+size) became
/// obsolete (free / scope exit); clears its signature slots.
#define DP_FREE(ptr, size)                                        \
  do {                                                            \
    if (::depprof::Runtime::instance().enabled())                 \
      ::depprof::Runtime::instance().record_free((ptr), (size));  \
  } while (0)

/// Control-region markers (Sec. III-A: BGN/END loop records with executed
/// iteration counts).
#define DP_LOOP_BEGIN()                                                 \
  do {                                                                  \
    if (::depprof::Runtime::instance().enabled())                       \
      ::depprof::Runtime::instance().loop_begin(dp_file_id_, __LINE__); \
  } while (0)

#define DP_LOOP_ITER()                                 \
  do {                                                 \
    if (::depprof::Runtime::instance().enabled())      \
      ::depprof::Runtime::instance().loop_iter();      \
  } while (0)

#define DP_LOOP_END()                                                 \
  do {                                                                \
    if (::depprof::Runtime::instance().enabled())                     \
      ::depprof::Runtime::instance().loop_end(dp_file_id_, __LINE__); \
  } while (0)

/// Marks the *next* line's update as a reduction (x = x op e) for the
/// parallelism-discovery analysis.  Place on the same line as the update.
#define DP_REDUCTION()                                                      \
  do {                                                                      \
    if (::depprof::Runtime::instance().enabled())                           \
      ::depprof::Runtime::instance().mark_reduction(dp_file_id_, __LINE__); \
  } while (0)

namespace depprof::detail {

/// RAII function-scope guard behind DP_FUNCTION.
class FunctionGuard {
 public:
  FunctionGuard(std::uint32_t file, std::uint32_t line, std::uint32_t name_id)
      : active_(Runtime::instance().enabled()) {
    if (active_) Runtime::instance().func_enter(file, line, name_id);
  }
  ~FunctionGuard() {
    if (active_) Runtime::instance().func_exit();
  }
  FunctionGuard(const FunctionGuard&) = delete;
  FunctionGuard& operator=(const FunctionGuard&) = delete;

 private:
  bool active_;
};

}  // namespace depprof::detail

/// Function-scope marker: place at the top of an instrumented function.
/// Records entry/exit for the dynamic call tree (Sec. VIII framework).
#define DP_FUNCTION(name)                                                 \
  static const std::uint32_t dp_func_name_id_ =                           \
      ::depprof::var_registry().intern(name);                             \
  ::depprof::detail::FunctionGuard dp_func_guard_(dp_file_id_, __LINE__,  \
                                                  dp_func_name_id_)

/// Implicit synchronization point (thread create/join, barrier arrival):
/// flushes the calling thread's buffered accesses so that synchronization-
/// ordered accesses also arrive at the profiler in order (Sec. V-A).  Place
/// before spawning threads that read this thread's writes, at the end of a
/// thread body, and after barrier waits.
#define DP_SYNC()                                      \
  do {                                                 \
    if (::depprof::Runtime::instance().enabled())      \
      ::depprof::Runtime::instance().sync_point();     \
  } while (0)

/// Lock-region markers for MT targets (Sec. V, Fig. 4).  Call DP_LOCK_ENTER
/// right after acquiring a target-program lock and DP_LOCK_EXIT right before
/// releasing it; buffered accesses are pushed before the release.
#define DP_LOCK_ENTER()                               \
  do {                                                \
    if (::depprof::Runtime::instance().enabled())     \
      ::depprof::Runtime::instance().lock_enter();    \
  } while (0)

#define DP_LOCK_EXIT()                                \
  do {                                                \
    if (::depprof::Runtime::instance().enabled())     \
      ::depprof::Runtime::instance().lock_exit();     \
  } while (0)
