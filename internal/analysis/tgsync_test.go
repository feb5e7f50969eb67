package analysis

import "testing"

func TestUnlockpathFixture(t *testing.T) { checkFixture(t, Unlockpath, "unlockpath/paths") }
func TestBlockheldFixture(t *testing.T)  { checkFixture(t, Blockheld, "blockheld/serve") }

// TestUnlockpathMalformedDirectives asserts both seeded broken //sync:
// directives through the shared baddir helper.
func TestUnlockpathMalformedDirectives(t *testing.T) {
	checkMalformedDirectives(t, Unlockpath, "unlockpath/baddir", "unknown //sync: annotation kind sequential")
}
