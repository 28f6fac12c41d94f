// Cloud-side baseline strategies: the five schemes the paper evaluates
// Tangram against (Section V-A).  Tangram itself — patch stitching onto
// canvases plus the online SLO-aware batching invoker (Algorithm 2) — lives
// in core::TangramSystem; experiments::run_end_to_end runs it there, on the
// same arrival stream.
//
// Every baseline submits requests to a FunctionPlatform; they differ only
// in *how and when* they invoke:
//
//  * Full Frame   — one invocation per full-resolution frame;
//  * Masked Frame — one invocation per masked frame (AdaMask-style: same
//                   resolution, background blanked, mild compute discount);
//  * ELF          — one invocation per patch, triggered in sequence;
//  * Clipper      — patches resized to a fixed model input and batched with
//                   an AIMD-adapted maximum batch size, single outstanding
//                   batch per model replica (the NSDI'17 scheme);
//  * MArk         — patches resized to a fixed model input, dispatched when
//                   the queue reaches `batch_size` or the oldest item has
//                   waited `timeout` (batch-size + timeout scheme).
//
// The harness drives on_patch()/on_frame() at network-delivery time and
// learns about completions through the PatchCompletionFn / FrameCompletionFn
// callbacks, from which it computes SLO violations.

#pragma once

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "core/patch.h"
#include "serverless/platform.h"
#include "sim/simulator.h"

namespace tangram::baselines {

// A full- or masked-frame unit of work (frame-level strategies).
struct FrameWork {
  int camera_id = 0;
  int frame_index = 0;
  double generation_time = 0.0;
  double slo = 1.0;
  double megapixels = 0.0;
  bool masked = false;

  [[nodiscard]] double deadline() const { return generation_time + slo; }
};

// (work item, completion record) notifications.
using PatchCompletionFn = std::function<void(
    const core::Patch&, const serverless::InvocationRecord&)>;
using FrameCompletionFn = std::function<void(
    const FrameWork&, const serverless::InvocationRecord&)>;

class Strategy {
 public:
  virtual ~Strategy() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  virtual void on_patch(const core::Patch& patch);
  virtual void on_frame(const FrameWork& frame);
  // End of stream: dispatch anything still queued.
  virtual void flush() {}
};

// --- Full / Masked frame -------------------------------------------------------

class FullFrameStrategy final : public Strategy {
 public:
  FullFrameStrategy(serverless::FunctionPlatform& platform,
                    FrameCompletionFn on_done)
      : platform_(platform), on_done_(std::move(on_done)) {}
  [[nodiscard]] std::string name() const override { return "FullFrame"; }
  void on_frame(const FrameWork& frame) override;

 private:
  serverless::FunctionPlatform& platform_;
  FrameCompletionFn on_done_;
};

class MaskedFrameStrategy final : public Strategy {
 public:
  MaskedFrameStrategy(serverless::FunctionPlatform& platform,
                      FrameCompletionFn on_done)
      : platform_(platform), on_done_(std::move(on_done)) {}
  [[nodiscard]] std::string name() const override { return "MaskedFrame"; }
  void on_frame(const FrameWork& frame) override;

 private:
  serverless::FunctionPlatform& platform_;
  FrameCompletionFn on_done_;
};

// --- ELF -----------------------------------------------------------------------

struct ElfOptions {
  // ELF's region-proposal boxes over-cover the patch content; its inference
  // inputs are correspondingly larger (matches CodecModel::elf_expansion).
  double area_expansion = 1.60;
};

class ElfStrategy final : public Strategy {
 public:
  ElfStrategy(serverless::FunctionPlatform& platform, ElfOptions options,
              PatchCompletionFn on_done)
      : platform_(platform), options_(options), on_done_(std::move(on_done)) {}
  [[nodiscard]] std::string name() const override { return "ELF"; }
  void on_patch(const core::Patch& patch) override;

 private:
  serverless::FunctionPlatform& platform_;
  ElfOptions options_;
  PatchCompletionFn on_done_;
};

// --- Clipper ---------------------------------------------------------------------

struct ClipperOptions {
  common::Size model_input{640, 640};  // every patch is resized to this
  int initial_max_batch = 4;
  int additive_increase = 1;
  double multiplicative_decrease = 0.9;
  int max_batch_limit = 32;
};

class ClipperStrategy final : public Strategy {
 public:
  ClipperStrategy(sim::Simulator& simulator,
                  serverless::FunctionPlatform& platform,
                  ClipperOptions options, PatchCompletionFn on_done);
  [[nodiscard]] std::string name() const override { return "Clipper"; }
  void on_patch(const core::Patch& patch) override;
  void flush() override;

  [[nodiscard]] double current_max_batch() const { return max_batch_; }

 private:
  void maybe_dispatch();

  sim::Simulator& sim_;
  serverless::FunctionPlatform& platform_;
  ClipperOptions options_;
  PatchCompletionFn on_done_;
  std::deque<core::Patch> queue_;
  double max_batch_;
  bool in_flight_ = false;
};

// --- MArk ------------------------------------------------------------------------

struct MArkOptions {
  // MArk provisions one model configuration for the whole workload, sized
  // for the largest request — every patch is upsized to the full canvas.
  common::Size model_input{1024, 1024};
  int batch_size = 8;
  double timeout_s = 0.25;  // "an appropriate timeout for each bandwidth"
};

class MArkStrategy final : public Strategy {
 public:
  MArkStrategy(sim::Simulator& simulator,
               serverless::FunctionPlatform& platform, MArkOptions options,
               PatchCompletionFn on_done);
  [[nodiscard]] std::string name() const override { return "MArk"; }
  void on_patch(const core::Patch& patch) override;
  void flush() override;

 private:
  void dispatch();

  sim::Simulator& sim_;
  serverless::FunctionPlatform& platform_;
  MArkOptions options_;
  PatchCompletionFn on_done_;
  std::deque<core::Patch> queue_;
  sim::EventHandle timeout_timer_;
};

}  // namespace tangram::baselines
