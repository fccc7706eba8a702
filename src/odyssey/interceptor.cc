#include "src/odyssey/interceptor.h"

#include <utility>

#include "src/util/check.h"

namespace odyssey {

namespace {
constexpr const char kMountPrefix[] = "/odyssey/";
constexpr size_t kMountPrefixLen = sizeof(kMountPrefix) - 1;
}  // namespace

Interceptor::Interceptor(Viceroy* viceroy) : viceroy_(viceroy) {
  OD_CHECK(viceroy != nullptr);
}

std::string Interceptor::DataTypeOf(const std::string& path) {
  if (path.rfind(kMountPrefix, 0) != 0) {
    return "";
  }
  size_t start = kMountPrefixLen;
  size_t end = path.find('/', start);
  if (end == std::string::npos) {
    end = path.size();
  }
  return path.substr(start, end - start);
}

bool Interceptor::Resolves(const std::string& path) const {
  std::string type = DataTypeOf(path);
  return !type.empty() && viceroy_->FindWarden(type) != nullptr;
}

bool Interceptor::Read(const std::string& path, size_t request_bytes, size_t bytes,
                       odsim::SimDuration server_time, odsim::EventFn on_done) {
  std::string type = DataTypeOf(path);
  if (type.empty()) {
    return false;
  }
  Warden* warden = viceroy_->FindWarden(type);
  if (warden == nullptr) {
    return false;
  }
  ++intercepted_;
  warden->Fetch("", request_bytes, bytes, server_time,
                [on_done = std::move(on_done)](const Warden::FetchOutcome&) {
                  if (on_done) {
                    on_done();
                  }
                });
  return true;
}

}  // namespace odyssey
