// Known-bad fixture: cites a design document that does not exist.
// See DESIGN.md section 2 for the time model.
#pragma once
