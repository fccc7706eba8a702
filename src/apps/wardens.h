// Type-specific wardens for the four data types (Section 2.2: "there is one
// warden for each data type in the system").
//
// Wardens run in the Odyssey address space; their CPU work is attributed to
// the "Odyssey" process, matching the paper's profiles.

#ifndef SRC_APPS_WARDENS_H_
#define SRC_APPS_WARDENS_H_

#include <cstddef>

#include "src/odyssey/viceroy.h"
#include "src/odyssey/warden.h"
#include "src/sim/simulator.h"

namespace odapps {

// Shared helper: registers the Odyssey process/procedure labels.
class OdysseyWardenBase : public odyssey::Warden {
 public:
  OdysseyWardenBase(std::string data_type, odsim::Simulator* sim,
                    std::string procedure);

 protected:
  // Submits warden CPU work, attributed to the Odyssey process.
  void SubmitOdysseyWork(odsim::SimDuration work, odsim::EventFn on_complete);

 private:
  odsim::Simulator* sim_;
  odsim::ProcessId odyssey_pid_;
  odsim::ProcedureId proc_;
};

// Streams video chunks from the video server (xanim's data path).
class VideoWarden : public OdysseyWardenBase {
 public:
  explicit VideoWarden(odsim::Simulator* sim);

  // Receives one chunk of `bytes`, then runs small warden bookkeeping work.
  void StreamChunk(size_t bytes, odsim::SimDuration warden_cpu,
                   odsim::EventFn on_done);
};

// Ships waveforms (or compressed intermediate representations) to a remote
// Janus server and returns recognized text.
class SpeechWarden : public OdysseyWardenBase {
 public:
  explicit SpeechWarden(odsim::Simulator* sim);

  void RemoteRecognize(size_t waveform_bytes, size_t reply_bytes,
                       odsim::SimDuration server_time, odsim::EventFn on_done);
};

// Fetches maps, annotated with filter/crop requests, from the map server.
class MapWarden : public OdysseyWardenBase {
 public:
  explicit MapWarden(odsim::Simulator* sim);

  // Typed variant: the viewer falls back to its cached map when the fetch
  // fails instead of waiting on a dead channel.
  void FetchMapWithStatus(size_t request_bytes, size_t map_bytes,
                          odsim::SimDuration server_time,
                          odnet::RpcClient::StatusFn on_done);
};

// Fetches Web images through the distillation server.
class WebWarden : public OdysseyWardenBase {
 public:
  explicit WebWarden(odsim::Simulator* sim);

  // Typed variant: the browser renders a text-only page when the image
  // never arrives.
  void FetchImageWithStatus(size_t request_bytes, size_t image_bytes,
                            odsim::SimDuration distill_time,
                            odnet::RpcClient::StatusFn on_done);
};

}  // namespace odapps

#endif  // SRC_APPS_WARDENS_H_
