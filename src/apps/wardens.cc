#include "src/apps/wardens.h"

#include <utility>

#include "src/util/check.h"

namespace odapps {

OdysseyWardenBase::OdysseyWardenBase(std::string data_type, odsim::Simulator* sim,
                                     std::string procedure)
    : Warden(std::move(data_type)), sim_(sim) {
  OD_CHECK(sim != nullptr);
  odyssey_pid_ = sim_->processes().RegisterProcess("Odyssey");
  proc_ = sim_->processes().RegisterProcedure(procedure);
}

void OdysseyWardenBase::SubmitOdysseyWork(odsim::SimDuration work,
                                          odsim::EventFn on_complete) {
  if (work <= odsim::SimDuration::Zero()) {
    if (on_complete) {
      on_complete();
    }
    return;
  }
  sim_->SubmitWork(odyssey_pid_, proc_, work, std::move(on_complete));
}

VideoWarden::VideoWarden(odsim::Simulator* sim)
    : OdysseyWardenBase("video", sim, "_sftp_DataArrived") {}

void VideoWarden::StreamChunk(size_t bytes, odsim::SimDuration warden_cpu,
                              odsim::EventFn on_done) {
  viceroy()->link()->Transfer(
      odnet::Direction::kReceive, bytes,
      [this, warden_cpu, on_done = std::move(on_done)]() mutable {
        SubmitOdysseyWork(warden_cpu, std::move(on_done));
      });
}

SpeechWarden::SpeechWarden(odsim::Simulator* sim)
    : OdysseyWardenBase("speech", sim, "_rpc2_SendResponse") {}

void SpeechWarden::RemoteRecognize(size_t waveform_bytes, size_t reply_bytes,
                                   odsim::SimDuration server_time,
                                   odsim::EventFn on_done) {
  Fetch(waveform_bytes, reply_bytes, server_time, std::move(on_done));
}

MapWarden::MapWarden(odsim::Simulator* sim)
    : OdysseyWardenBase("map", sim, "_map_FetchReply") {}

void MapWarden::FetchMapWithStatus(size_t request_bytes, size_t map_bytes,
                                   odsim::SimDuration server_time,
                                   odnet::RpcClient::StatusFn on_done) {
  FetchWithStatus(request_bytes, map_bytes, server_time, std::move(on_done));
}

WebWarden::WebWarden(odsim::Simulator* sim)
    : OdysseyWardenBase("web", sim, "_distill_Fetch") {}

void WebWarden::FetchImageWithStatus(size_t request_bytes, size_t image_bytes,
                                     odsim::SimDuration distill_time,
                                     odnet::RpcClient::StatusFn on_done) {
  FetchWithStatus(request_bytes, image_bytes, distill_time, std::move(on_done));
}

}  // namespace odapps
