// Fault injection: named failpoints at IO and allocation-heavy boundaries.
//
// A failpoint is a named site that normally does nothing. When the build is
// configured with -DRDFSR_FAILPOINTS=ON and the process environment carries
//
//   RDFSR_FAILPOINTS=name=error,other.name=5%
//
// the named sites start failing: `name=error` fires on every hit, `name=n%`
// fires deterministically on every floor(100/n)-th hit starting with the
// first (so even a short run with a 1% failpoint injects at least one fault,
// and a given run is exactly reproducible — no RNG). Multiple specs are
// comma- or semicolon-separated.
//
// A site is RDFSR_FAILPOINT(name), placed in a function returning Status or
// Result<T>: when it fires, the function early-returns an injected kInternal
// Status. A site that must report the fault some other way (the MIP solve
// entry turns it into a kUnknown decision) calls FailpointHit(name) inside
// #ifdef RDFSR_FAILPOINTS_ENABLED instead.
//
// When the CMake option is OFF (the default), the macro compiles to nothing
// and the registry is not linked into the hot path.

#ifndef RDFSR_UTIL_FAILPOINT_H_
#define RDFSR_UTIL_FAILPOINT_H_

#include <string>

#include "util/status.h"

namespace rdfsr::util {

/// True when the named failpoint should fire on this hit. Thread-safe;
/// increments the site's hit counter. Always false for unarmed names.
bool FailpointShouldFire(const char* name);

/// The Status injected at `name` (kInternal, message names the failpoint).
Status FailpointStatus(const char* name);

/// Checks-and-fires in one call: non-OK when the site should fail now.
inline Status FailpointHit(const char* name) {
  if (FailpointShouldFire(name)) return FailpointStatus(name);
  return Status::OK();
}

/// Parses a spec string ("a=error,b=5%"), replacing the armed set. Returns
/// false (and arms nothing new) on a malformed spec. Exposed for tests; the
/// registry self-initializes from $RDFSR_FAILPOINTS on first use.
bool ArmFailpointsFromSpec(const std::string& spec);

/// Disarms every failpoint and resets hit counters. Test hook.
void ClearFailpoints();

}  // namespace rdfsr::util

#ifdef RDFSR_FAILPOINTS_ENABLED
#define RDFSR_FAILPOINT(name)                                        \
  do {                                                               \
    if (::rdfsr::util::FailpointShouldFire(name)) {                  \
      return ::rdfsr::util::FailpointStatus(name);                   \
    }                                                                \
  } while (false)
#else
#define RDFSR_FAILPOINT(name) \
  do {                        \
  } while (false)
#endif  // RDFSR_FAILPOINTS_ENABLED

#endif  // RDFSR_UTIL_FAILPOINT_H_
