// Lazily-filled JIT compilation caches embedded in the predecode layer.
//
// A CodeSegment is immutable and shared (by ExecutableImages that splice it
// and by the TrialBuilder's per-signature variant table), so the blob of
// native code compiled from its micro-ops -- placed in executable memory
// once, when it is compiled -- is run by every image that splices the
// segment: a delta trial re-JITs only the dirty functions. Likewise an
// ExecutableImage is shared (TrialBuilder, forked workers), so its
// JitImage -- the function table linking its segments' blobs, or for a
// from-scratch image its one monolithic blob -- is built at most once per
// image and profile variant. Both caches live behind a mutex on the
// otherwise-const owner; exec_image.hpp embeds these handles by value,
// which is why this header stays free of the emitter/linker machinery.
#pragma once

#include <memory>
#include <mutex>

namespace fpmix::vm::jit {

class SegmentBlob;
class JitImage;

/// A segment's placed blob. Segments are only ever compiled unprofiled: a
/// profiled run of a spliced image compiles its flat global-form stream
/// instead (the counter addresses are global pcs).
struct BlobCache {
  std::mutex mu;
  std::shared_ptr<const SegmentBlob> blob;
};

/// Two slots: [0] plain, [1] profiled (per-instruction execution counters
/// compiled in). The tag-trap option does not fork the cache: compiled code
/// compares against a per-run sentinel value that is unmatchable when the
/// trap is disabled.
struct ImageJitCache {
  std::mutex mu;
  std::shared_ptr<const JitImage> variant[2];
};

}  // namespace fpmix::vm::jit
