#include "claim_table.hh"

#include "util/hash.hh"
#include "util/json.hh"

namespace osp::store
{

std::string
claimStateName(ClaimState state)
{
    switch (state) {
    case ClaimState::Claimed:
        return "claimed";
    case ClaimState::Retry:
        return "retry";
    case ClaimState::Done:
        return "done";
    case ClaimState::Failed:
        return "failed";
    }
    return "claimed";
}

std::optional<ClaimState>
claimStateFromName(const std::string &name)
{
    if (name == "claimed")
        return ClaimState::Claimed;
    if (name == "retry")
        return ClaimState::Retry;
    if (name == "done")
        return ClaimState::Done;
    if (name == "failed")
        return ClaimState::Failed;
    return std::nullopt;
}

std::string
ClaimTable::claimKey(const std::string &fingerprint,
                     const std::string &cell_key)
{
    return "claim/" + fingerprint + "/" + cell_key;
}

std::string
ClaimTable::ownerLockPath(const std::string &store_path,
                          const std::string &owner)
{
    return store_path + ".owner." +
           StableHash().bytes(owner.data(), owner.size()).hex();
}

std::string
ClaimTable::encode(const ClaimRecord &record)
{
    JsonValue doc = JsonValue::object();
    doc.add("owner", record.owner);
    doc.add("state", claimStateName(record.state));
    doc.add("retries", record.retries);
    if (!record.error.empty())
        doc.add("error", record.error);
    return doc.dump(-1);
}

std::optional<ClaimRecord>
ClaimTable::decode(std::string_view text)
{
    bool ok = false;
    JsonValue doc = JsonValue::parse(text, &ok);
    if (!ok || !doc.isObject())
        return std::nullopt;

    const JsonValue *owner = doc.find("owner");
    const JsonValue *state = doc.find("state");
    const JsonValue *retries = doc.find("retries");
    if (!owner || !owner->isString() || !state ||
        !state->isString() || !retries || !retries->isNumber())
        return std::nullopt;
    auto parsed_state = claimStateFromName(state->asString());
    if (!parsed_state)
        return std::nullopt;

    ClaimRecord record;
    record.owner = owner->asString();
    record.state = *parsed_state;
    record.retries = retries->asUint();
    if (const JsonValue *error = doc.find("error");
        error && error->isString())
        record.error = error->asString();
    return record;
}

} // namespace osp::store
