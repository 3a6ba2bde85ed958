#include "env/page_store.h"

namespace auxlsm {

uint32_t PageStore::CreateFile() {
  SharedMutexWriteLock l(mu_);
  uint32_t id = next_file_id_++;
  files_.emplace(id, std::vector<PageData>());
  return id;
}

Status PageStore::AppendPage(uint32_t file_id, std::string page,
                             uint32_t* page_no, PageData* stored) {
  if (page.size() != page_size_) {
    return Status::InvalidArgument("page size mismatch");
  }
  SharedMutexWriteLock l(mu_);
  auto it = files_.find(file_id);
  if (it == files_.end()) return Status::NotFound("no such file");
  it->second.push_back(std::make_shared<const std::string>(std::move(page)));
  if (page_no != nullptr) {
    *page_no = static_cast<uint32_t>(it->second.size() - 1);
  }
  if (stored != nullptr) *stored = it->second.back();
  return Status::OK();
}

Status PageStore::ReadPage(uint32_t file_id, uint32_t page_no,
                           PageData* out) const {
  SharedMutexReadLock l(mu_);
  auto it = files_.find(file_id);
  if (it == files_.end()) return Status::NotFound("no such file");
  if (page_no >= it->second.size()) {
    return Status::InvalidArgument("page out of range");
  }
  *out = it->second[page_no];
  return Status::OK();
}

uint32_t PageStore::NumPages(uint32_t file_id) const {
  SharedMutexReadLock l(mu_);
  auto it = files_.find(file_id);
  return it == files_.end() ? 0 : static_cast<uint32_t>(it->second.size());
}

Status PageStore::DeleteFile(uint32_t file_id) {
  SharedMutexWriteLock l(mu_);
  if (files_.erase(file_id) == 0) return Status::NotFound("no such file");
  return Status::OK();
}

bool PageStore::FileExists(uint32_t file_id) const {
  SharedMutexReadLock l(mu_);
  return files_.count(file_id) > 0;
}

uint64_t PageStore::TotalPages() const {
  SharedMutexReadLock l(mu_);
  uint64_t total = 0;
  for (const auto& [id, pages] : files_) total += pages.size();
  return total;
}

}  // namespace auxlsm
